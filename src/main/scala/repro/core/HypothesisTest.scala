package repro.core

import org.apache.commons.math3.distribution.ChiSquaredDistribution

/** Chi-squared uniformity testing used by RefineBin1D/RefineBin2D (§4.1).
  *
  * A bin with `u` unique values is divided into `s = ceil((2u)^(1/3))`
  * sub-bins (Terrell–Scott inequality, Eq 2) and the sub-bin counts are
  * tested against the uniform null hypothesis with significance `alpha`
  * (Eq 3). Critical values come from commons-math3, which ships on the
  * Spark classpath.
  */
object HypothesisTest {

  /** Terrell–Scott sub-bin count for a bin with `u` unique values (Eq 2). */
  def subBins(u: Long): Int = {
    if (u <= 0) 1
    else math.ceil(math.cbrt(2.0 * u)).toInt
  }

  /** Critical value chi2_alpha with Pr(X > chi2_alpha) = alpha at `dof`
    * degrees of freedom. Memoised — the builder calls this per tested bin.
    */
  def criticalValue(alpha: Double, dof: Int): Double = {
    require(dof >= 1, s"dof must be >= 1, got $dof")
    critCache.computeIfAbsent(
      (alpha, dof),
      { _ => new ChiSquaredDistribution(dof.toDouble).inverseCumulativeProbability(1.0 - alpha) }
    )
  }

  private val critCache =
    new java.util.concurrent.ConcurrentHashMap[(Double, Int), java.lang.Double]()

  /** Chi-squared statistic for observed sub-bin counts under the uniform
    * null (Eq 3). `counts.sum` must be positive.
    */
  def statistic(counts: Array[Long]): Double = {
    val s = counts.length
    val h = counts.sum.toDouble
    val expected = h / s
    var chi2 = 0.0
    var r = 0
    while (r < s) {
      val d = counts(r) - expected
      chi2 += d * d / expected
      r += 1
    }
    chi2
  }

  /** Assign each value in [lo, hi) to one of `s` equal-width sub-bins and
    * add its weight (its multiplicity in the sample) to that sub-bin. Values
    * equal to `hi` (the closed upper edge of the last bin of a histogram)
    * land in the final sub-bin.
    */
  def subBinCounts(values: Array[Double], weights: Array[Long], lo: Double, hi: Double, s: Int): Array[Long] = {
    val counts = new Array[Long](s)
    val width = hi - lo
    var i = 0
    while (i < values.length) {
      val r0 = if (width <= 0) 0 else ((values(i) - lo) / width * s).toInt
      counts(math.min(s - 1, math.max(0, r0))) += weights(i)
      i += 1
    }
    counts
  }

  /** The paper's IsUniform on sub-bin counts: true iff they are consistent
    * with a uniform distribution at significance `alpha`. Bins that cannot
    * be subdivided (fewer than 2 sub-bins) or hold nothing are trivially
    * uniform.
    */
  def isUniformCounts(counts: Array[Long], alpha: Double): Boolean = {
    if (counts.length < 2 || counts.sum == 0) true
    else statistic(counts) <= criticalValue(alpha, counts.length - 1)
  }
}
