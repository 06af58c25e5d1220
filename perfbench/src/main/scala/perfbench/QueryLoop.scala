package perfbench

import java.io.{ObjectInputStream, ObjectOutputStream}
import java.lang.ProcessBuilder.Redirect
import java.nio.file.{Files, Path, Paths}
import java.util.concurrent.TimeUnit

import perfbench.Bench.{Outcome, more, sameBits}
import repro.core.{Engine, Query}

import scala.collection.mutable.ArrayBuffer

/** Times and counts of a query phase. `warmNs` holds whole warm passes,
  * query by query, so entry `i` is query `i % queries`. Serializable, so a
  * query fork can send its stats back.
  */
final class QueryStats extends Serializable {
  val reloadNs = ArrayBuffer.empty[Long]
  val firstPassNs = ArrayBuffer.empty[Long]
  val warmNs = ArrayBuffer.empty[Long]
  val warmPassNs = ArrayBuffer.empty[Long]
  val tracedRoundNs = ArrayBuffer.empty[Long]
  val untracedRoundNs = ArrayBuffer.empty[Long]
  var attempted = 0L
  var failed = 0L
  /** Results that differ in a bit from the reference results. */
  var mismatches = 0L

  def ++=(o: QueryStats): this.type = {
    reloadNs ++= o.reloadNs
    firstPassNs ++= o.firstPassNs
    warmNs ++= o.warmNs
    warmPassNs ++= o.warmPassNs
    tracedRoundNs ++= o.tracedRoundNs
    untracedRoundNs ++= o.untracedRoundNs
    attempted += o.attempted
    failed += o.failed
    mismatches += o.mismatches
    this
  }

  /** Each query's fastest warm latency. */
  def bestNs(queries: Int): ArrayBuffer[Long] = {
    val best = Array.fill(queries)(Long.MaxValue)
    for (i <- warmNs.indices) best(i % queries) = math.min(best(i % queries), warmNs(i))
    ArrayBuffer.from(best)
  }
}

/** The closed query loop over one stored synopsis: rounds of reload
  * (`Codec.decode` + `new Engine`), one first pass and warm passes over the
  * query set, every result checked bit for bit against `reference`. One
  * client, because `Engine`'s cache is not synchronised.
  */
final class QueryLoop(bytes: Array[Byte], queries: IndexedSeq[Query], reference: Array[Outcome], tr: Tracer) {
  import QueryLoop._

  val qs = new QueryStats

  /** Discarded reloads and warm passes. */
  def warmup(): Unit = {
    (1 until WarmupReloads).foreach(_ => Pipeline.reload(bytes, tr))
    val engine = Pipeline.reload(bytes, tr)
    (0 until WarmupPasses).foreach(_ => compare(pass(tr, engine, queries, ArrayBuffer.empty)))
  }

  /** Rounds until the deadline, at least two; with `trace`, every other
    * round is traced.
    */
  def rounds(deadline: Long, trace: Boolean): Unit = {
    var r = 0
    val opNs = ArrayBuffer.empty[Long]
    while (more(r, 2, deadline, opNs)) {
      val traced = trace && r % 2 == 1
      tr.enabled = traced
      tr.newOp()
      val t0 = System.nanoTime()
      tr.local("round") {
        val engine = Pipeline.reload(bytes, tr)
        qs.reloadNs += System.nanoTime() - t0
        countAndCompare(pass(tr, engine, queries, qs.firstPassNs))
        var p = 0
        while (p < PassesPerRound) {
          val w0 = System.nanoTime()
          val out = pass(tr, engine, queries, qs.warmNs)
          qs.warmPassNs += System.nanoTime() - w0
          countAndCompare(out)
          p += 1
        }
      }
      val dt = System.nanoTime() - t0
      tr.enabled = false
      opNs += dt
      if (traced) qs.tracedRoundNs += dt else qs.untracedRoundNs += dt
      r += 1
    }
  }

  private def countAndCompare(out: Array[Outcome]): Unit = {
    qs.attempted += out.length
    qs.failed += out.count(_.isLeft)
    compare(out)
  }

  private def compare(out: Array[Outcome]): Unit =
    qs.mismatches += reference.indices.count(k => !sameBits(reference(k), out(k)))
}

object QueryLoop {
  val WarmupReloads = 5
  val WarmupPasses = 20
  val PassesPerRound = 6

  def runQuery(e: Engine, q: Query): Outcome =
    try {
      val r = e.run(q)
      if (r.exists(x => !x.estimate.isFinite)) Left(s"non-finite estimate $r") else Right(r)
    } catch { case ex: Exception => Left(ex.toString) }

  /** One pass over the set; per-query latencies are appended to `lat`. */
  def pass(tr: Tracer, e: Engine, queries: IndexedSeq[Query], lat: ArrayBuffer[Long]): Array[Outcome] =
    tr.local("engine.pass") {
      val out = new Array[Outcome](queries.length)
      var k = 0
      while (k < queries.length) {
        val t0 = System.nanoTime()
        out(k) = tr.local("engine.query", k)(runQuery(e, queries(k)))
        lat += System.nanoTime() - t0
        k += 1
      }
      out
    }
}

/** The untraced timed query phase runs in fresh query-only JVMs, each with
  * its own warm-up. In the benchmark's JVM, after Spark and the builds,
  * whole runs of reloads came out up to 2x slower than in others, the
  * fastest reload included, while other runs of the same seed did not. In
  * a fresh JVM the fastest figures still fall for a few seconds as its code
  * is compiled: with three forks of 1.1 s, those that fitted a third round
  * had a 20 % lower median, so there are two forks of a quarter of
  * `seconds` each.
  */
object QueryFork {
  final case class Job(bytes: Array[Byte], queries: IndexedSeq[Query], reference: Array[Outcome], measureNs: Long)

  val Heap = "1g"
  val YoungGen = "512m"
  val TimeoutS = 60L

  /** `QueryFork <job file> <stats file>`: runs the job, writes its stats. */
  def main(args: Array[String]): Unit = {
    val Array(in, out) = args
    val job = read[Job](Paths.get(in))
    val loop = new QueryLoop(job.bytes, job.queries, job.reference, new Tracer(None))
    loop.warmup()
    loop.rounds(System.nanoTime() + job.measureNs, trace = false)
    write(Paths.get(out), loop.qs)
  }

  /** Runs `job` in a fresh JVM with this JVM's classpath; its files go to
    * `dir`. Throws when the fork fails or times out, and never leaves it
    * running.
    */
  def run(job: Job, dir: Path): QueryStats = {
    Files.createDirectories(dir)
    val (in, out) = (dir.resolve("job.bin"), dir.resolve("stats.bin"))
    write(in, job)
    val java = Paths.get(System.getProperty("java.home"), "bin", "java").toString
    val cmd = Seq(java, s"-Xms$Heap", s"-Xmx$Heap", s"-Xmn$YoungGen", "-XX:+UseParallelGC", "-XX:-UsePerfData",
      "-Xlog:disable", "-Xlog:all=warning:stderr", s"-Djava.io.tmpdir=$dir",
      "-cp", System.getProperty("java.class.path"), "perfbench.QueryFork", in.toString, out.toString)
    val p = new ProcessBuilder(cmd: _*).redirectOutput(Redirect.DISCARD).redirectError(Redirect.INHERIT).start()
    try {
      if (!p.waitFor(TimeoutS, TimeUnit.SECONDS)) throw new IllegalStateException(s"query fork timed out after $TimeoutS s")
      if (p.exitValue != 0) throw new IllegalStateException(s"query fork exited ${p.exitValue}")
      read[QueryStats](out)
    } finally {
      if (p.isAlive) {
        p.destroyForcibly()
        p.waitFor()
      }
      Files.deleteIfExists(in)
      Files.deleteIfExists(out)
      ()
    }
  }

  private def write(path: Path, x: AnyRef): Unit = {
    val os = new ObjectOutputStream(Files.newOutputStream(path))
    try os.writeObject(x)
    finally os.close()
  }

  private def read[A](path: Path): A = {
    val is = new ObjectInputStream(Files.newInputStream(path))
    try is.readObject().asInstanceOf[A]
    finally is.close()
  }
}
