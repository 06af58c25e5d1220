package perfbench

import org.apache.spark.sql.DataFrame
import repro.core._
import repro.encoding.Codec
import repro.gd.{GreedyGD, Preprocess}

/** The build pipeline in `Runner.buildAll`'s order, without the baselines,
  * with one span around each public call. Only the public signatures are
  * used, so work moved behind them shows here without editing this file.
  */
object Pipeline {

  /** Ns = 20k on both workloads, and paper defaults as `Runner.buildAll`
    * sets them: M = 1% of Ns, alpha = 0.001, and its default seed of the
    * construction and GreedyGD samples.
    */
  final case class Params(gdSeeds: Boolean) {
    val nS = 20000
    val m: Long = math.max(2L, (nS * 0.01).toLong)
    val alpha = 0.001
    val seed = 42L
  }

  final case class Built(
      pre: Preprocess.Result,
      ph: PairwiseHist,
      bytes: Array[Byte],
      sampleRows: Int,
      gd: Option[GreedyGD.Compressed],
      seedsCollected: Long,
      seedsUseful: Long
  )

  /** One full build: cached raw DataFrame in, encoded synopsis out. */
  def build(df: DataFrame, p: Params, tr: Tracer): Built = tr.span("build") {
    val n = tr.span("ingest")(df.count())
    val pre = tr.span("preprocess")(Preprocess.run(df))
    val sample = tr.span("sample")(Builder.collectSample(pre.df, n, p.nS, p.seed))
    val gd =
      if (!p.gdSeeds) None
      // Bit selection sample as in Runner.buildAll.
      else Some(tr.span("greedygd")(GreedyGD.run(pre.df, sampleRows = math.min(p.nS, 5000), seed = p.seed)))
    val seeds: Map[Int, Array[Double]] = gd match {
      case None => Map.empty
      case Some(c) =>
        tr.span("seeds")(pre.specs.indices.map(i => i -> GreedyGD.baseValues(c, pre.specs(i).name)).toMap)
    }
    val ph = tr.span("builder")(Builder.build(sample, pre.specs, n, p.m, p.alpha, seeds))
    val bytes = tr.local("codec.encode")(Codec.encode(ph))
    // Algorithm 1 keeps at most ceil(Ns/M) seeds per column.
    val cap = math.ceil(ph.nS.toDouble / p.m).toLong
    val collected = seeds.valuesIterator.map(_.length.toLong).sum
    val useful = seeds.valuesIterator.map(s => math.min(s.length.toLong, cap)).sum
    Built(pre, ph, bytes, sample.headOption.fold(0)(_.length), gd, collected, useful)
  }

  /** Decode stored bytes and construct a fresh engine over them. */
  def reload(bytes: Array[Byte], tr: Tracer): Engine = {
    val ph = tr.local("codec.decode")(Codec.decode(bytes))
    tr.local("engine.construct")(new Engine(ph))
  }

  /** Pair-matrix cells a query's predicate reads: one pair histogram per
    * same-column condition group on a column other than the aggregation
    * column, grouped per connective as the engine consolidates them.
    */
  def cellsTouched(ph: PairwiseHist, q: Query): Long = {
    val i = ph.columnIndex(q.aggCol)
    def node(kids: List[PredTree]): Long = {
      val groups = kids.collect { case c: Cond => ph.columnIndex(c.col) }.distinct.filter(_ != i)
      val own = groups.map(j => ph.pair(i, j).fold(0L)(h => h.metaI.k.toLong * h.metaJ.k)).sum
      own + kids.collect { case t: And => node(t.children); case t: Or => node(t.children) }.sum
    }
    q.where.fold(0L) {
      case c: Cond => node(List(c))
      case And(ks) => node(ks)
      case Or(ks)  => node(ks)
    }
  }

  /** Number of atomic conditions in a query's predicate. */
  def predCount(q: Query): Int = {
    def count(t: PredTree): Int = t match {
      case _: Cond => 1
      case And(ks) => ks.map(count).sum
      case Or(ks)  => ks.map(count).sum
    }
    q.where.fold(0)(count)
  }
}
