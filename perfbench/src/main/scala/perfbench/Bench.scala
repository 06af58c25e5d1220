package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.Paths

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.data.Datasets
import repro.encoding.Codec
import repro.gd.GreedyGD
import repro.workload.{GroundTruth, QueryGen, Runner}

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

/** A workload: the data a run builds on and queries. */
final case class Workload(name: String, dataset: String, sf: Double, gdSeeds: Boolean)

object Workload {
  val all: Seq[Workload] = Seq(
    // Power with GD seeds: the paper's integrated operating point. Most of
    // a build is Spark jobs (Preprocess, GreedyGD, seed extraction).
    Workload("build-power-gd", "power", 0.05, gdSeeds = true),
    // Flights, 32 columns and 496 pairs, no seeds: the Builder's 2-d
    // refinement is the largest layer and GreedyGD does no work.
    Workload("build-flights-wide", "flights", 0.005, gdSeeds = false)
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name' (have ${all.map(_.name).mkString(", ")})")
    )
}

/** One benchmark run: set-up, then two timed phases.
  *
  *  1. Full builds, from the cached raw DataFrame to encoded bytes, for
  *     `seconds`: at least one, and two in a traced run.
  *  2. The [[QueryLoop]] for half of `seconds`: rounds that decode the
  *     stored bytes, construct a new `Engine` and make warm passes over the
  *     query set. Only the Codec and the Engine work here. Untraced, it is
  *     split over [[QueryFork]]s, fresh query-only JVMs. Its times are
  *     best-of-run figures, so half of the time is enough for them.
  *
  * With `trace` on, timed operations alternate untraced and traced, all in
  * this JVM; the traced ones give the per-layer metrics and the pair gives
  * the overhead.
  */
final class Bench(spark: SparkSession, w: Workload, seed: Long, seconds: Int, trace: Boolean) {
  import Bench._

  private val tr = new Tracer(Some(spark.sparkContext))
  private val params = Pipeline.Params(w.gdSeeds)
  private val failedChecks = ArrayBuffer.empty[String]
  private def check(ok: Boolean, what: => String): Unit = if (!ok) failedChecks += what
  private val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
  private def progress(msg: String): Unit =
    Console.err.println(f"[${(System.currentTimeMillis() - jvmStartMs) / 1e3}%7.2f s] ${w.name}: $msg")

  var attempted = 0L
  var failed = 0L
  def checksFailed: Seq[String] = failedChecks.toSeq

  /** Runs the workload and returns (end-to-end, per-layer) metrics. */
  def run(): (Metrics, Metrics) = {
    val e2e = new Metrics
    val layer = new Metrics

    // ---- set-up: data, ground truth, queries, the set-up build ----------
    progress("spark started")
    // The dataset and the synopsis are fixed, as the paper builds one
    // synopsis per dataset; the seed drives the query literals. With the
    // data drawn from the seed, the synopsis size moved by 10 % and warm
    // query latency by 40 % across seeds; with the construction and
    // GreedyGD samples drawn from it, Power's reload time and query
    // throughput still moved by 30-36 %, and the same seeds repeated their
    // values in a second set of runs (correlation 0.87-0.96).
    val df = Datasets.byName(w.dataset)(spark, w.sf).cache()
    val nRows = df.count()
    progress(s"$nRows rows")
    try {
      // Ground truth and query generation run beside the set-up and warm-up
      // builds. No set-up Spark job is traced, so the counts stay exact.
      val querySet = Future(generateQueries(df, nRows))(ExecutionContext.global)

      // The set-up build is the reference for every later build.
      val t0 = System.nanoTime()
      val ref = Pipeline.build(df, params, tr)
      progress(f"set-up build ${(System.nanoTime() - t0) / 1e9}%.2f s, ${ref.bytes.length} bytes")
      checkRoundTrip(ref.bytes)
      // A workload that does not seed with GreedyGD still reports its
      // compression; that run overlaps the discarded warm-up builds.
      val gdRun = ref.gd.fold(
        Future(GreedyGD.run(ref.pre.df, sampleRows = math.min(params.nS, 5000), seed = params.seed))(ExecutionContext.global)
      )(Future.successful)

      // Discard builds while the JVM and Spark's code caches warm up; the
      // set-up build is the first of them.
      (1 until WarmupBuilds).foreach { _ =>
        timedBuild(df, ref.bytes).foreach(s => progress(f"warm-up build $s%.2f s"))
      }
      val gd = Await.result(gdRun, Duration.Inf)
      gd.bases.unpersist()
      val gdRatio = gd.compressedBytes.toDouble / gd.originalBytes
      val QuerySet(queries, truths) = Await.result(querySet, Duration.Inf)

      // ---- timed phase 1: builds -------------------------------------------
      val measureStart = System.currentTimeMillis()
      val buildS = ArrayBuffer.empty[Double]
      val tracedBuildOps = ArrayBuffer.empty[Int]
      val deadline = System.nanoTime() + seconds * 1000000000L
      val opNs = ArrayBuffer.empty[Long]
      var k = 0
      while (more(k, if (trace) 2 else 1, deadline, opNs)) {
        val traced = trace && k % 2 == 1
        tr.enabled = traced
        val op = tr.newOp()
        val built = timedBuild(df, ref.bytes)
        tr.enabled = false
        attempted += 1
        built match {
          case Some(s) =>
            opNs += (s * 1e9).toLong
            if (traced) tracedBuildOps += op else buildS += s
            progress(f"build $s%.2f s${if (traced) " (traced)" else ""}")
          case None => failed += 1
        }
        k += 1
      }

      // ---- timed phase 2: reloads and warm query passes ------------------
      // Every engine's results must match these bit for bit, in this JVM
      // and in the forks.
      val reference = QueryLoop.pass(tr, Pipeline.reload(ref.bytes, tr), queries, ArrayBuffer.empty)
      val queryNs = seconds * 1000000000L / 2
      val qs =
        if (trace) {
          val loop = new QueryLoop(ref.bytes, queries, reference, tr)
          loop.warmup()
          loop.rounds(System.nanoTime() + queryNs, trace = true)
          loop.qs
        } else {
          val job = QueryFork.Job(ref.bytes, queries, reference, queryNs / QueryForks)
          val forkDir = Paths.get(System.getProperty("java.io.tmpdir"), "query-fork")
          (1 to QueryForks).foldLeft(new QueryStats) { (all, f) =>
            val one = QueryFork.run(job, forkDir)
            progress(f"query fork $f: ${one.reloadNs.length} rounds, fastest reload ${one.reloadNs.min / 1e6}%.1f ms, " +
              f"p50 ${percentile(one.bestNs(queries.length), 0.5) / 1e3}%.1f us")
            all ++= one
          }
        }
      attempted += qs.attempted
      failed += qs.failed
      check(qs.mismatches == 0, s"${qs.mismatches} query results differ from the reference engine's")
      val setupS = (measureStart - jvmStartMs) / 1e3
      progress(s"measured; ${qs.reloadNs.length} query rounds")

      // ---- accuracy over the reference results --------------------------
      val evals = queries.indices.flatMap { k =>
        reference(k).toOption.map(r => Runner.Eval(queries(k), truths(k), Map(PH -> r), Map(PH -> 0.0)))
      }
      val (hitPct, widthPct) = Runner.boundsStats(evals, PH)
      val unanswered = evals.count(_.results(PH).isEmpty)

      val mem = ManagementFactory.getMemoryMXBean
      mem.gc()
      val heapMb = mem.getHeapMemoryUsage.getUsed / 1048576.0

      e2e("setup_s", setupS, "s")
      e2e("ok_ops_pct", 100.0 * (attempted - failed) / math.max(1L, attempted), "%")
      e2e("heap_mb", heapMb, "MB")
      e2e("build_s", Runner.median(buildS.toSeq), "s")
      e2e("build_max_s", buildS.maxOption.getOrElse(Double.NaN), "s")
      e2e("synopsis_bytes", ref.bytes.length.toDouble, "bytes")
      e2e("gd_bytes_per_raw_byte", gdRatio, "ratio")
      // Best-of-run figures, over all forks: on a shared host, other
      // tenants only ever add time, in slow spells of seconds to minutes. A
      // median or mean over the run moved by 30-50 % between runs with the
      // spells; the fastest of many repetitions is the program's own cost.
      // The fastest reload (`reload_ms`) still spread past any usable bound
      // (0.27 in a set of ten seeds), so it is per-layer.
      val best = qs.bestNs(queries.length)
      e2e("query_p50_us", percentile(best, 0.50) / 1e3, "us")
      e2e("query_p95_us", percentile(best, 0.95) / 1e3, "us")
      e2e("query_qps", queries.length / (qs.warmPassNs.min / 1e9), "1/s")
      e2e("bound_hit_pct", hitPct, "%")

      // ---- per-layer -----------------------------------------------------
      val ph = ref.ph
      buildLayers(layer, tracedBuildOps.toSet)
      layer("build.count", buildS.length + tracedBuildOps.length, "count")
      layer("warmup.builds", WarmupBuilds, "count")
      layer("warmup.reloads", QueryLoop.WarmupReloads, "count")
      layer("warmup.passes", QueryLoop.WarmupPasses, "count")
      layer("sample.rows", ref.sampleRows, "rows")
      layer("greedygd.bases", ref.gd.fold(0L)(_.nBases), "count")
      layer("seeds.values", ref.seedsCollected, "count")
      layer("seeds.useful_ratio", if (ref.seedsCollected == 0) 0.0 else ref.seedsUseful.toDouble / ref.seedsCollected, "ratio")
      layer("builder.bins_1d", ph.hist1d.map(_.k.toLong).sum, "count")
      layer("builder.pairs", ph.hist2d.size, "count")
      layer("builder.cells_2d", ph.hist2d.valuesIterator.map(h => h.metaI.k.toLong * h.metaJ.k).sum, "count")
      val sizes = Codec.measure(ph)
      layer("codec.bytes.params", sizes.params, "bytes")
      layer("codec.bytes.hist1d", sizes.hist1d, "bytes")
      layer("codec.bytes.hist2d", sizes.hist2d, "bytes")
      layer("codec.bytes.counts", sizes.counts, "bytes")
      queryLayers(layer, queries, qs)
      layer("reload_ms", qs.reloadNs.min / 1e6, "ms")
      layer("engine.first_pass_us", mean(qs.firstPassNs.map(_.toDouble)) / 1e3, "us")
      layer("engine.cells_per_query", queries.map(q => Pipeline.cellsTouched(ph, q).toDouble).sum / queries.length, "count")
      layer("engine.unanswered", unanswered, "count")
      // Exact for a seed, but 20-35 % apart across seeds: too wide for an
      // end-to-end bound, so they are per-layer.
      layer("median_error_pct", Runner.medianErrorPct(evals, PH), "%")
      layer("bound_width_pct", widthPct, "%")
      layer("query.count", qs.warmNs.length + qs.firstPassNs.length, "count")
      // Tracing overhead: traced against untraced operations of one run.
      layer("trace.build_overhead_pct", (mean(tracedBuildOps.map(op => rootNs(op) / 1e9)) / mean(buildS) - 1) * 100, "%")
      layer("trace.round_overhead_pct", (mean(qs.tracedRoundNs.map(_.toDouble)) / mean(qs.untracedRoundNs.map(_.toDouble)) - 1) * 100, "%")

      (e2e, layer)
    } finally {
      df.unpersist()
      ()
    }
  }

  def writeTrace(path: java.nio.file.Path): Unit = tr.write(path)

  /** One full build, checked against the set-up build after the clock
    * stops; returns its seconds, or None when it threw. The GreedyGD bases
    * it cached are released, so the heap does not grow with the number of
    * builds.
    */
  private def timedBuild(df: DataFrame, refBytes: Array[Byte]): Option[Double] = {
    val t0 = System.nanoTime()
    val out =
      try Right(Pipeline.build(df, params, tr))
      catch { case e: Exception => Left(e) }
    val s = (System.nanoTime() - t0) / 1e9
    out match {
      case Right(b) =>
        b.gd.foreach(_.bases.unpersist())
        check(java.util.Arrays.equals(b.bytes, refBytes),
          s"build gave ${b.bytes.length} synopsis bytes, set-up build gave ${refBytes.length}, or the bytes differ")
        checkRoundTrip(b.bytes)
        Some(s)
      case Left(e) =>
        Console.err.println(s"build failed: $e")
        None
    }
  }

  /** Generated queries with their exact answers from DuckDB. */
  private def generateQueries(df: DataFrame, nRows: Long): QuerySet = {
    val table = s"${w.dataset}_t"
    val gt = GroundTruth.forDataFrame(df, table)
    try {
      val prof = QueryGen.profile(df, seed = seed)
      // Load the Parquet view into DuckDB memory once: query generation
      // checks every candidate against it, and rescanning Parquet per query
      // was most of the set-up time.
      val st = gt.conn.createStatement()
      try {
        st.execute(s"SET temp_directory = '${Paths.get(System.getProperty("java.io.tmpdir"), "duckdb")}'")
        st.execute(s"CREATE TABLE ${table}_mem AS SELECT * FROM $table")
        st.execute(s"DROP VIEW $table")
        st.execute(s"CREATE VIEW $table AS SELECT * FROM ${table}_mem")
      } finally st.close()
      // Fixed templates (as TPC-H has), literals from quantiles of this
      // seed's profile sample: a seeded template mix moved the query
      // metrics by 30-40 % across seeds, more than any usable bound.
      val queries = QueryGen
        .generate(prof, gt, nRows, Queries, AggFn.all, maxPreds = 5, minSelectivity = 1e-4, seed = TemplateSeed, orShare = 0.2)
        .toIndexedSeq
      check(queries.length == Queries, s"query generation gave ${queries.length} of $Queries queries")
      progress(s"${queries.length} queries")
      QuerySet(queries, queries.map(q => gt.answer(q).get))
    } finally gt.close()
  }

  private def checkRoundTrip(bytes: Array[Byte]): Unit =
    check(java.util.Arrays.equals(Codec.encode(Codec.decode(bytes)), bytes), "decode -> encode changed the synopsis bytes")

  // ------------------------------------------------------------ layers -----

  private def rootNs(op: Int): Long = tr.spans.find(s => s.op == op && s.parent == -1).fold(0L)(_.durNs)

  /** Mean per traced build of each layer's self time and Spark/GC counts.
    * The layers' self times plus `build.remainder_ms` equal `build.traced_ms`.
    */
  private def buildLayers(layer: Metrics, ops: Set[Int]): Unit = {
    val self = tr.selfNs
    val spans = tr.spans.filter(s => ops(s.op))
    val n = math.max(1, ops.size).toDouble
    def children(id: Int) = spans.filter(_.parent == id)
    def selfCount(s: Span, f: Span => Long) = f(s) - children(s.id).map(f).sum
    for (name <- BuildLayers) {
      val ss = spans.filter(_.name == name)
      layer(timeKey(name), ss.map(s => self(s.id)).sum / 1e6 / n, "ms")
      if (!name.contains('.')) {
        layer(s"$name.spark_jobs", ss.map(selfCount(_, _.jobs)).sum / n, "count")
        layer(s"$name.spark_stages", ss.map(selfCount(_, _.stages)).sum / n, "count")
        layer(s"$name.spark_tasks", ss.map(selfCount(_, _.tasks)).sum / n, "count")
        layer(s"$name.gc_ms", ss.map(selfCount(_, _.gcMs)).sum / n, "ms")
      }
    }
    val roots = spans.filter(_.name == "build")
    val traced = roots.map(_.durNs).sum / 1e6 / n
    val remainder = roots.map(s => self(s.id)).sum / 1e6 / n
    layer("build.traced_ms", traced, "ms")
    layer("build.remainder_ms", remainder, "ms")
    layer("spark.jobs", roots.map(_.jobs).sum / n, "count")
    layer("spark.stages", roots.map(_.stages).sum / n, "count")
    layer("spark.tasks", roots.map(_.tasks).sum / n, "count")
    layer("gc_ms", roots.map(_.gcMs).sum / n, "ms")
    val layerSum = BuildLayers.map(name => layer.value(timeKey(name))).sum
    check(!trace || math.abs(layerSum + remainder - traced) <= 1e-6 * math.max(1.0, traced),
      s"layer self times $layerSum ms + remainder $remainder ms != traced build $traced ms")
  }

  /** Per-aggregation and per-shape median latency of traced queries, and
    * mean reload-layer times per traced round.
    */
  private def queryLayers(layer: Metrics, queries: IndexedSeq[Query], qs: QueryStats): Unit = {
    val self = tr.selfNs
    val tracedRoundOps = tr.spans.filter(_.name == "round").map(_.op).toSet
    val rounds = math.max(1, tracedRoundOps.size).toDouble
    for (name <- Seq("codec.decode", "engine.construct")) {
      val ss = tr.spans.filter(s => s.name == name && tracedRoundOps(s.op))
      layer(timeKey(name), ss.map(s => self(s.id)).sum / 1e6 / rounds, "ms")
    }
    val qSpans = tr.spans.filter(s => s.name == "engine.query" && tracedRoundOps(s.op))
    def med(p: Query => Boolean): Double = {
      val xs = qSpans.filter(s => p(queries(s.tag))).map(_.durNs.toDouble / 1e3)
      if (xs.isEmpty) 0.0 else Runner.median(xs.toSeq)
    }
    for (a <- AggFn.all) layer(s"engine.query_us.${aggKey(a)}", med(_.agg == a), "us")
    for (k <- 1 to 5) layer(s"engine.query_us.preds$k", med(q => Pipeline.predCount(q) == k), "us")
    layer("engine.query_us.or", med(_.where.exists(_.hasOr)), "us")
  }
}

object Bench {
  type Outcome = Either[String, Option[AqpResult]]

  final case class QuerySet(queries: IndexedSeq[Query], truths: IndexedSeq[Double])

  /** System name in `Runner.Eval` maps. */
  val PH = "PairwiseHist"
  val WarmupBuilds = 2
  /** Seed of the query templates' random choices (aggregation, columns,
    * operators, quantile positions); the literals come from the data.
    */
  val TemplateSeed = 20240101L
  /** Size of the generated query set. */
  val Queries = 300
  /** Fresh JVMs the untraced query phase is split over. */
  val QueryForks = 2

  /** Whether to start operation `k`: always the first `min`, then only if
    * one more of median length ends by the deadline.
    */
  def more(k: Int, min: Int, deadline: Long, opNs: ArrayBuffer[Long]): Boolean =
    k < min || System.nanoTime() + Runner.median(opNs.map(_.toDouble).toSeq).toLong <= deadline

  val BuildLayers: Seq[String] = Seq("ingest", "preprocess", "sample", "greedygd", "seeds", "builder", "codec.encode")

  /** `preprocess.ms`, but `codec.encode_ms` for the dotted names. */
  def timeKey(span: String): String = if (span.contains('.')) s"${span}_ms" else s"$span.ms"

  def aggKey(a: AggFn): String = a match {
    case AggFn.Var => "var"
    case other     => other.sqlName
  }

  def sameBits(a: Outcome, b: Outcome): Boolean = (a, b) match {
    case (Left(x), Left(y))   => x == y
    case (Right(None), Right(None)) => true
    case (Right(Some(x)), Right(Some(y))) =>
      Seq(x.estimate -> y.estimate, x.lo -> y.lo, x.hi -> y.hi).forall { case (u, v) =>
        java.lang.Double.doubleToRawLongBits(u) == java.lang.Double.doubleToRawLongBits(v)
      }
    case _ => false
  }

  /** Nearest-rank percentile of nanosecond samples. */
  def percentile(xs: ArrayBuffer[Long], p: Double): Double = {
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.toArray.sorted
      s(math.min(s.length - 1, math.max(0, math.ceil(p * s.length).toInt - 1))).toDouble
    }
  }

  def mean(xs: Iterable[Double]): Double = if (xs.isEmpty) Double.NaN else xs.sum / xs.size
}

/** Named metrics with units, in insertion order. */
final class Metrics {
  private val m = mutable.LinkedHashMap.empty[String, (Double, String)]
  def apply(name: String, value: Double, unit: String): Unit = {
    require(!m.contains(name), s"metric $name set twice")
    m(name) = (value, unit)
  }
  def value(name: String): Double = m(name)._1
  def all: Seq[(String, Double, String)] = m.toSeq.map { case (k, (v, u)) => (k, v, u) }
}
