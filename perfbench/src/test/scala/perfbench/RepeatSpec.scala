package perfbench

import org.scalatest.funsuite.AnyFunSuite

/** Two traced runs of one seed must agree exactly on every count the
  * benchmark reports: Spark jobs, stages and tasks per layer, synopsis
  * sizes, and the accuracy metrics.
  */
class RepeatSpec extends AnyFunSuite {

  private val exactLayer = "^(.*spark_(jobs|stages|tasks)|spark\\.(jobs|stages|tasks)|codec\\.bytes\\..*|builder\\.(bins_1d|pairs|cells_2d)|sample\\.rows|greedygd\\.bases|seeds\\.(values|useful_ratio)|engine\\.(cells_per_query|unanswered)|median_error_pct|bound_width_pct)$"
  private val exactE2e = Set("synopsis_bytes", "gd_bytes_per_raw_byte", "bound_hit_pct")

  test("one seed repeats counts, synopsis bytes and accuracy exactly") {
    val spark = Main.session()
    try {
      def once(): (Map[String, Double], Map[String, Double]) = {
        val bench = new Bench(spark, Workload.byName("build-power-gd"), seed = 3, seconds = 1, trace = true)
        val (e2e, layer) = bench.run()
        assert(bench.checksFailed.isEmpty)
        assert(bench.failed == 0)
        def pick(m: Metrics, keep: String => Boolean) = m.all.collect { case (k, v, _) if keep(k) => k -> v }.toMap
        (pick(e2e, exactE2e), pick(layer, _.matches(exactLayer)))
      }
      val (e1, l1) = once()
      val (e2, l2) = once()
      assert(e1.keySet == exactE2e)
      assert(l1.keys.count(_.endsWith("spark_jobs")) == 6)
      assert(l1("spark.jobs") > 0)
      assert(e1 == e2)
      assert(l1 == l2)
    } finally spark.stop()
  }
}
