package perfbench

import java.nio.file.Paths

import org.apache.spark.sql.SparkSession

/** Benchmark entry point.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --work <dir>
  * }}}
  *
  * Progress goes to stderr; the last stdout line is one JSON object with
  * `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
  * `--trace 0`, per-layer metrics with `--trace 1`). Exits 1 when a
  * correctness check fails.
  */
object Main {

  /** Local threads and shuffle partitions. Fixed, not taken from the host,
    * so Spark job, stage and task counts repeat on any machine.
    */
  val Cores = 4

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, usage(s"missing --$k"))
    val workload = Workload.byName(opt("workload"))
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toInt
    val trace = opt("trace") match {
      case "0" => false
      case "1" => true
      case other => usage(s"--trace must be 0 or 1, got $other")
    }
    val work = Paths.get(opt("work")).toAbsolutePath

    val spark = session()
    val bench = new Bench(spark, workload, seed, seconds, trace)
    // Spark's threads would keep the JVM alive after an exception.
    val (e2e, layer) =
      try bench.run()
      catch {
        case e: Throwable =>
          e.printStackTrace()
          spark.stop()
          sys.exit(1)
      }
    if (trace) bench.writeTrace(work.resolve(s"trace-${workload.name}-$seed.tsv"))
    spark.stop()

    val metrics = if (trace) layer else e2e
    val nonFinite = metrics.all.collect { case (k, v, _) if !v.isFinite => k }
    val problems = bench.checksFailed ++ nonFinite.map(k => s"metric $k is not finite")
    problems.foreach(p => Console.err.println(s"CHECK FAILED: $p"))
    val correct = problems.isEmpty

    val body = metrics.all
      .map { case (k, v, u) => s""""$k": {"value": ${if (v.isFinite) v.toString else "0"}, "unit": "$u"}""" }
      .mkString(", ")
    println(s"""{"correct": $correct, "attempted": ${bench.attempted}, "failed": ${bench.failed}, "metrics": {$body}}""")
    sys.exit(if (correct) 0 else 1)
  }

  /** Local Spark with its scratch space under `java.io.tmpdir`. */
  def session(): SparkSession = {
    val spark = SparkSession.builder
      .master(s"local[$Cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", Cores.toString)
      .config("spark.ui.enabled", "false")
      // Spark's status store keeps few finished jobs, stages and SQL
      // executions: with the defaults, each build added about 5 MB to the
      // heap at the end of a run, so heap_mb followed the build count.
      .config("spark.ui.retainedJobs", "20")
      .config("spark.ui.retainedStages", "20")
      .config("spark.sql.ui.retainedExecutions", "20")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", Paths.get(System.getProperty("java.io.tmpdir"), "spark").toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    spark
  }

  private def usage(msg: String): Nothing = {
    Console.err.println(s"$msg\nusage: --workload <${Workload.all.map(_.name).mkString("|")}> --seed <n> --seconds <s> --trace <0|1> --work <dir>")
    sys.exit(2)
  }
}
