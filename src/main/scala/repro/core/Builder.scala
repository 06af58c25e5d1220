package repro.core

import org.apache.spark.sql.DataFrame
import repro.gd.ColumnSpec

import scala.collection.mutable.ArrayBuffer

/** PairwiseHist construction (Algorithm 1) over value counts.
  *
  * Values are in the GD integer domain as Doubles; missing values are NaN.
  * Splits are equal-width (the paper tested both and chose equal-width).
  *
  * The value-level histogram is the exact sufficient statistic for
  * Algorithm 1: bin counts, unique counts, extrema and chi-squared sub-bin
  * counts are all weighted reductions of it. So the one refinement core
  * ([[wBuild1D]], [[buildPair]]) runs over sorted `(value, count)` pairs per
  * column and `(vi, vj, count)` rows per column pair. [[build]] counts a
  * collected sample locally; [[DistributedBuilder]] counts with DataFrame
  * aggregations and feeds the same core.
  */
object Builder {

  /** Build from a column-major sample. `initialEdges` optionally seeds 1-d
    * bin edges with GreedyGD base values (§3); they are downsampled to at
    * most ceil(Ns/M) values (Algorithm 1 line 4).
    *
    * @param sample   sample(c) = values of column c (NaN for null)
    * @param n        rows in the full dataset (for the sampling ratio rho)
    * @param m        minimum bin count to consider splitting
    * @param alpha    hypothesis-test significance
    */
  def build(
      sample: Array[Array[Double]],
      specs: Array[ColumnSpec],
      n: Long,
      m: Long,
      alpha: Double,
      initialEdges: Map[Int, Array[Double]] = Map.empty
  ): PairwiseHist = {
    val d = sample.length
    require(specs.length == d, s"specs=${specs.length} columns=$d")
    val nS = if (d == 0) 0L else sample(0).length.toLong
    val nullCounts = sample.map(_.count(_.isNaN).toLong)

    val counted = sample.map(valueCounts)
    val hist1d = Array.tabulate(d) { i =>
      val (vals, wts) = counted(i)
      Hist1D(i, wBuild1D(vals, wts, initialEdges.get(i), nS, m, alpha))
    }

    val ranks = Array.tabulate(d)(i => valueRanks(sample(i), counted(i)._1))
    val hist2d = (for {
      i <- 1 until d
      j <- 0 until i
    } yield {
      val rows = pairCounts(ranks(i), ranks(j), counted(i)._1, counted(j)._1)
      (i, j) -> buildPair(i, j, rows, hist1d, m, alpha)
    }).toMap

    PairwiseHist(n, nS, m, alpha, specs, hist1d, hist2d, nullCounts)
  }

  /** Collect a sample of a GD-domain DataFrame and build locally. */
  def buildFromDf(
      gdDf: DataFrame,
      specs: Array[ColumnSpec],
      n: Long,
      nS: Int,
      m: Long,
      alpha: Double,
      seed: Long = 42,
      initialEdges: Map[Int, Array[Double]] = Map.empty
  ): PairwiseHist = {
    val sample = collectSample(gdDf, n, nS, seed)
    build(sample, specs, n, m, alpha, initialEdges)
  }

  /** Deterministic unbiased sample of up to `nS` rows as column-major
    * doubles (see [[repro.util.Sampling]] for why limit() is not used).
    */
  def collectSample(gdDf: DataFrame, n: Long, nS: Int, seed: Long): Array[Array[Double]] = {
    val d = gdDf.columns.length
    val rows = repro.util.Sampling.collectRows(gdDf, nS, seed, n)
    Array.tabulate(d) { c =>
      rows.map(r => if (r.isNullAt(c)) Double.NaN else r.getLong(c).toDouble)
    }
  }

  // ------------------------------------------------------- value counts ----

  /** Sorted distinct non-null values of a column and their multiplicities. */
  private def valueCounts(values: Array[Double]): (Array[Double], Array[Long]) = {
    val xs = values.filterNot(_.isNaN).sorted
    val starts = xs.indices.filter(i => i == 0 || xs(i) != xs(i - 1)).toArray
    val ends = starts.drop(1) :+ xs.length
    (starts.map(xs(_)), Array.tabulate(starts.length)(q => (ends(q) - starts(q)).toLong))
  }

  /** Index of each row's value in the column's sorted distinct values; -1 for null. */
  private def valueRanks(values: Array[Double], distinct: Array[Double]): Array[Int] =
    values.map(v => if (v.isNaN) -1 else lowerBound(distinct, v))

  /** (vi, vj, count) rows of a column pair from per-row value ranks. Rows
    * with a null in either column are excluded from the pair (§3,
    * missing-value support; SQL predicates on null fail).
    */
  private def pairCounts(
      ri: Array[Int], rj: Array[Int], valsI: Array[Double], valsJ: Array[Double]
  ): Array[(Double, Double, Long)] = {
    val uJ = valsJ.length.toLong
    val keys = new Array[Long](ri.length)
    var nk = 0
    var r = 0
    while (r < ri.length) {
      if (ri(r) >= 0 && rj(r) >= 0) { keys(nk) = ri(r) * uJ + rj(r); nk += 1 }
      r += 1
    }
    java.util.Arrays.sort(keys, 0, nk)
    val rows = ArrayBuffer.empty[(Double, Double, Long)]
    var a = 0
    while (a < nk) {
      var b = a + 1
      while (b < nk && keys(b) == keys(a)) b += 1
      rows += ((valsI((keys(a) / uJ).toInt), valsJ((keys(a) % uJ).toInt), (b - a).toLong))
      a = b
    }
    rows.toArray
  }

  // ---------------------------------------------------------------- 1-d ----

  /** One-dimensional histogram of a column's values (NaN for null). */
  def build1D(values: Array[Double], m: Long, alpha: Double, seeds: Option[Array[Double]], nS: Long): DimMeta = {
    val (vals, wts) = valueCounts(values)
    wBuild1D(vals, wts, seeds, nS, m, alpha)
  }

  /** One-dimensional histogram with recursive refinement (Alg 1 lines 3–12)
    * over sorted distinct values `vals` with multiplicities `wts`.
    */
  def wBuild1D(
      vals: Array[Double], wts: Array[Long],
      seeds: Option[Array[Double]], nS: Long, m: Long, alpha: Double
  ): DimMeta = {
    if (vals.isEmpty)
      return DimMeta(Array(0.0, 1.0), Array(0.0), Array(1.0), Array(0L), Array(0L))
    val mn = vals.head
    val mx = vals.last
    if (mn == mx)
      return DimMeta(Array(mn, mn + 1.0), Array(mn), Array(mn), Array(1L), Array(wts.sum))

    val init = initialEdgeVector(mn, mx, seeds, nS, m)
    val edges = ArrayBuffer(init.head)
    val vMin = ArrayBuffer.empty[Double]
    val vMax = ArrayBuffer.empty[Double]
    val uniq = ArrayBuffer.empty[Long]
    var t = 0
    while (t < init.length - 1) {
      val lo = init(t)
      val hi = init(t + 1)
      val last = t == init.length - 2
      val a = lowerBound(vals, lo)
      val b = if (last) upperBound(vals, hi) else lowerBound(vals, hi)
      val (e2, v2m, v2x, u2) = wRefine1D(lo, hi, vals, wts, a, b, m, alpha)
      edges ++= e2; vMin ++= v2m; vMax ++= v2x; uniq ++= u2
      t += 1
    }
    val edgeArr = edges.toArray
    val counts = new Array[Long](edgeArr.length - 1)
    var q = 0
    while (q < vals.length) {
      counts(binIndex(edgeArr, vals(q))) += wts(q)
      q += 1
    }
    DimMeta(edgeArr, vMin.toArray, vMax.toArray, uniq.toArray, counts)
  }

  /** RefineBin1D (Algorithm 2) over vals(from until until): returns
    * per-resulting-bin (upper edges, bin minima, bin maxima, unique counts).
    */
  private def wRefine1D(
      eL: Double, eR: Double,
      vals: Array[Double], wts: Array[Long], from: Int, until: Int,
      m: Long, alpha: Double
  ): (Seq[Double], Seq[Double], Seq[Double], Seq[Long]) = {
    val u = (until - from).toLong // distinct values in range (vals are distinct)
    if (u == 0) return (Seq(eR), Seq(eL), Seq(eR), Seq(0L))
    if (u == 1) return (Seq(eR), Seq(vals(from)), Seq(vals(from)), Seq(1L))
    var h = 0L
    var q = from
    while (q < until) { h += wts(q); q += 1 }
    val splittable = eR - eL > Theorems.Mu
    lazy val uniform = HypothesisTest.isUniformCounts(
      HypothesisTest.subBinCounts(vals.slice(from, until), wts.slice(from, until), eL, eR, HypothesisTest.subBins(u)),
      alpha
    )
    if (h < m || !splittable || uniform)
      return (Seq(eR), Seq(vals(from)), Seq(vals(until - 1)), Seq(u))
    val z = (eL + eR) / 2 // equal-width split
    if (z <= eL || z >= eR)
      return (Seq(eR), Seq(vals(from)), Seq(vals(until - 1)), Seq(u))
    val cut = math.min(until, math.max(from, lowerBound(vals, z)))
    val (eA, vA, xA, uA) = wRefine1D(eL, z, vals, wts, from, cut, m, alpha)
    val (eB, vB, xB, uB) = wRefine1D(z, eR, vals, wts, cut, until, m, alpha)
    (eA ++ eB, vA ++ vB, xA ++ xB, uA ++ uB)
  }

  /** Algorithm 1 line 4: seed edges downsampled to at most ceil(Ns/M)
    * values plus the column min/max. Without GD bases the paper starts from
    * just (min, max); we start from an equal-width grid of the same
    * ceil(Ns/M) resolution instead — a deliberate deviation documented in
    * DESIGN.md: a perfectly uniform column never fails the chi-squared test
    * and would otherwise stay a single bin, destroying AVG/SUM/MIN/MAX
    * resolution that the paper's GD-seeded operating point always has.
    */
  def initialEdgeVector(mn: Double, mx: Double, seeds: Option[Array[Double]], nS: Long, m: Long): Array[Double] = {
    val cap = math.max(1L, math.ceil(nS.toDouble / math.max(1L, m)).toLong).toInt
    seeds match {
      case Some(s0) if s0.nonEmpty =>
        val inRange = s0.filter(v => v > mn && v < mx).distinct.sorted
        val kept =
          if (inRange.length <= cap) inRange
          else {
            val step = inRange.length.toDouble / cap
            Array.tabulate(cap)(q => inRange(math.min(inRange.length - 1, (q * step).toInt))).distinct
          }
        (mn +: kept :+ mx).distinct.sorted
      case _ =>
        val k = math.min(cap.toLong, math.max(1L, (mx - mn).toLong)).toInt
        (0 to k).map(q => mn + (mx - mn) * q / k).distinct.toArray.sorted
    }
  }

  // ---------------------------------------------------------------- 2-d ----

  /** Two-dimensional histogram of two columns' row-aligned values (NaN for null). */
  def build2D(
      xi: Array[Double], xj: Array[Double],
      edgesI0: Array[Double], edgesJ0: Array[Double],
      m: Long, alpha: Double
  ): Hist2D = {
    val valsI = valueCounts(xi)._1
    val valsJ = valueCounts(xj)._1
    val rows = pairCounts(valueRanks(xi, valsI), valueRanks(xj, valsJ), valsI, valsJ)
    wBuild2D(rows, edgesI0, edgesJ0, m, alpha)
  }

  /** The pair (i, j) histogram from its (vi, vj, count) rows, refined from
    * the 1-d edges, with Eq 12 metadata sharing applied ([[shareDimMeta]]).
    */
  def buildPair(
      i: Int, j: Int, rows: Array[(Double, Double, Long)],
      hist1d: Array[Hist1D], m: Long, alpha: Double
  ): Hist2D = {
    val h2 = wBuild2D(rows, hist1d(i).meta.edges, hist1d(j).meta.edges, m, alpha)
    Hist2D(i, j, shareDimMeta(h2.metaI, hist1d(i).meta), shareDimMeta(h2.metaJ, hist1d(j).meta), h2.counts)
  }

  /** Two-dimensional histogram (Alg 1 lines 13–26) over (vi, vj, count)
    * rows: initial edges from the 1-d histograms, RefineBin2D per initial
    * cell with at least M points, then a full recount + marginal metadata on
    * the union of edges.
    */
  private def wBuild2D(
      rows: Array[(Double, Double, Long)],
      edgesI0: Array[Double], edgesJ0: Array[Double],
      m: Long, alpha: Double
  ): Hist2D = {
    val newI = ArrayBuffer.empty[Double]
    val newJ = ArrayBuffer.empty[Double]

    // Iterate over initial cells; refine each independently (Alg 1 line 17).
    val byCell = scala.collection.mutable.Map.empty[(Int, Int), ArrayBuffer[(Double, Double, Long)]]
    rows.foreach { r =>
      val key = (binIndex(edgesI0, r._1), binIndex(edgesJ0, r._2))
      byCell.getOrElseUpdate(key, ArrayBuffer.empty) += r
    }
    byCell.foreach { case ((ti, tj), cell) =>
      if (cell.map(_._3).sum >= m) {
        val (ei, ej) = wRefine2D(
          edgesI0(ti), edgesI0(ti + 1), edgesJ0(tj), edgesJ0(tj + 1),
          cell.toArray, m, alpha
        )
        newI ++= ei
        newJ ++= ej
      }
    }

    val edgesI = (edgesI0 ++ newI).distinct.sorted
    val edgesJ = (edgesJ0 ++ newJ).distinct.sorted
    wFinalize2D(rows, edgesI, edgesJ)
  }

  /** RefineBin2D: test uniformity in each dimension; split the least uniform
    * dimension at its midpoint; recurse. Returns new edges per dimension.
    */
  private def wRefine2D(
      loI: Double, hiI: Double, loJ: Double, hiJ: Double,
      cell: Array[(Double, Double, Long)], m: Long, alpha: Double
  ): (Seq[Double], Seq[Double]) = {
    val h = cell.map(_._3).sum
    if (h < m) return (Nil, Nil)

    def dimScore(pick: ((Double, Double, Long)) => Double, lo: Double, hi: Double): Double = {
      if (hi - lo <= Theorems.Mu) return 0.0 // cannot split further
      val values = cell.map(pick)
      val s = HypothesisTest.subBins(values.distinct.length.toLong)
      if (s < 2) 0.0
      else {
        val chi2 = HypothesisTest.statistic(HypothesisTest.subBinCounts(values, cell.map(_._3), lo, hi, s))
        chi2 / HypothesisTest.criticalValue(alpha, s - 1) // > 1 means reject
      }
    }

    val scoreI = dimScore(_._1, loI, hiI)
    val scoreJ = dimScore(_._2, loJ, hiJ)
    if (scoreI <= 1.0 && scoreJ <= 1.0) return (Nil, Nil)

    if (scoreI >= scoreJ) {
      val z = (loI + hiI) / 2
      if (z <= loI || z >= hiI) return (Nil, Nil)
      val (l, r) = cell.partition(_._1 < z)
      val (aI, aJ) = wRefine2D(loI, z, loJ, hiJ, l, m, alpha)
      val (bI, bJ) = wRefine2D(z, hiI, loJ, hiJ, r, m, alpha)
      (z +: (aI ++ bI), aJ ++ bJ)
    } else {
      val z = (loJ + hiJ) / 2
      if (z <= loJ || z >= hiJ) return (Nil, Nil)
      val (l, r) = cell.partition(_._2 < z)
      val (aI, aJ) = wRefine2D(loI, hiI, loJ, z, l, m, alpha)
      val (bI, bJ) = wRefine2D(loI, hiI, z, hiJ, r, m, alpha)
      (aI ++ bI, z +: (aJ ++ bJ))
    }
  }

  /** Final recount + per-dimension marginal metadata on the union edges
    * (Alg 1 lines 22–26).
    */
  private def wFinalize2D(
      rows: Array[(Double, Double, Long)], edgesI: Array[Double], edgesJ: Array[Double]
  ): Hist2D = {
    val kI = edgesI.length - 1
    val kJ = edgesJ.length - 1
    val counts = Array.fill(kI)(new Array[Long](kJ))
    val minI = Array.fill(kI)(Double.NaN); val maxI = Array.fill(kI)(Double.NaN)
    val minJ = Array.fill(kJ)(Double.NaN); val maxJ = Array.fill(kJ)(Double.NaN)
    val cntI = new Array[Long](kI); val cntJ = new Array[Long](kJ)
    val setI = Array.fill(kI)(new java.util.HashSet[java.lang.Double]())
    val setJ = Array.fill(kJ)(new java.util.HashSet[java.lang.Double]())
    rows.foreach { case (vi, vj, w) =>
      val ti = binIndex(edgesI, vi)
      val tj = binIndex(edgesJ, vj)
      counts(ti)(tj) += w
      cntI(ti) += w; cntJ(tj) += w
      if (minI(ti).isNaN || vi < minI(ti)) minI(ti) = vi
      if (maxI(ti).isNaN || vi > maxI(ti)) maxI(ti) = vi
      if (minJ(tj).isNaN || vj < minJ(tj)) minJ(tj) = vj
      if (maxJ(tj).isNaN || vj > maxJ(tj)) maxJ(tj) = vj
      setI(ti).add(vi); setJ(tj).add(vj)
    }
    def meta(edges: Array[Double], mn: Array[Double], mx: Array[Double], cnt: Array[Long],
             sets: Array[java.util.HashSet[java.lang.Double]]): DimMeta = {
      val k = cnt.length
      DimMeta(
        edges,
        Array.tabulate(k)(t => if (mn(t).isNaN) edges(t) else mn(t)),
        Array.tabulate(k)(t => if (mx(t).isNaN) edges(t + 1) else mx(t)),
        sets.map(_.size.toLong),
        cnt
      )
    }
    Hist2D(0, 0, meta(edgesI, minI, maxI, cntI, setI), meta(edgesJ, minJ, maxJ, cntJ, setJ), counts)
  }

  /** Eq 12's storage model: a pair-dimension bin whose edges coincide with
    * a 1-d bin SHARES that bin's metadata (only additional refined bins
    * carry their own). Applying the sharing at build time keeps the codec a
    * lossless round-trip. Marginal counts stay exact (they are rederivable
    * from the count matrix).
    */
  def shareDimMeta(pairMeta: DimMeta, oneD: DimMeta): DimMeta = {
    val parentBins = (0 until oneD.k).map(t => (oneD.edges(t), oneD.edges(t + 1)) -> t).toMap
    val vMin = pairMeta.vMin.clone()
    val vMax = pairMeta.vMax.clone()
    val uniq = pairMeta.unique.clone()
    var t = 0
    while (t < pairMeta.k) {
      parentBins.get((pairMeta.edges(t), pairMeta.edges(t + 1))) match {
        case Some(p) =>
          vMin(t) = oneD.vMin(p); vMax(t) = oneD.vMax(p); uniq(t) = oneD.unique(p)
        case None => ()
      }
      t += 1
    }
    DimMeta(pairMeta.edges, vMin, vMax, uniq, pairMeta.counts)
  }

  // ------------------------------------------------------------- helpers ----

  /** Bin index with half-open bins and a closed final bin. */
  def binIndex(edges: Array[Double], x: Double): Int = {
    val k = edges.length - 1
    if (x >= edges(k)) return k - 1
    if (x <= edges(0)) return 0
    var lo = 0; var hi = k - 1
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (x >= edges(mid)) lo = mid else hi = mid - 1
    }
    lo
  }

  /** First index with xs(idx) >= v. */
  def lowerBound(xs: Array[Double], v: Double): Int = {
    var lo = 0; var hi = xs.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (xs(mid) < v) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** First index with xs(idx) > v. */
  def upperBound(xs: Array[Double], v: Double): Int = {
    var lo = 0; var hi = xs.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (xs(mid) <= v) lo = mid + 1 else hi = mid
    }
    lo
  }
}
