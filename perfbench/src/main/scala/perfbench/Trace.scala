package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** One recorded span. Times are `System.nanoTime` values; `parent` is -1 for
  * an operation's root. Spark and GC counts are inclusive of child spans.
  */
final case class Span(
    id: Int,
    op: Int,
    name: String,
    parent: Int,
    tag: Int,
    startNs: Long,
    endNs: Long,
    jobs: Long,
    stages: Long,
    tasks: Long,
    gcMs: Long
) {
  def durNs: Long = endNs - startNs
}

/** Counts Spark jobs, stages and tasks as the listener bus delivers them. */
final class SparkCounts extends SparkListener {
  val jobs = new AtomicLong
  val stages = new AtomicLong
  val tasks = new AtomicLong
  override def onJobStart(e: SparkListenerJobStart): Unit = { jobs.incrementAndGet(); () }
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = { stages.incrementAndGet(); () }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = { tasks.incrementAndGet(); () }
}

/** In-memory span recorder for one thread. When `enabled` is false every
  * call runs its body and records nothing, so untraced operations pay one
  * branch per call.
  *
  * Spark-side spans drain the listener bus at both ends, so the job, stage
  * and task counts between the two reads belong to that span exactly. A
  * tracer without a SparkContext (in a query fork) records driver-only
  * spans.
  */
final class Tracer(sc: Option[SparkContext]) {
  private val counts = new SparkCounts
  sc.foreach(_.addSparkListener(counts))

  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private def gcMs(): Long = gcBeans.map(b => math.max(0L, b.getCollectionTime)).sum

  val spans = ArrayBuffer.empty[Span]
  var enabled = false
  private var opId = -1
  private val stack = ArrayBuffer.empty[Int]

  /** Starts a new operation; spans recorded until the next call share its id. */
  def newOp(): Int = { opId += 1; opId }

  /** Times `f` as a span that may run Spark jobs. */
  def span[A](name: String)(f: => A): A =
    if (!enabled) f
    else {
      drain()
      val (j0, s0, t0, g0) = (counts.jobs.get, counts.stages.get, counts.tasks.get, gcMs())
      record(name, -1, f) { (id, parent, start, end) =>
        drain()
        Span(id, opId, name, parent, -1, start, end,
          counts.jobs.get - j0, counts.stages.get - s0, counts.tasks.get - t0, gcMs() - g0)
      }
    }

  /** Times `f` as a driver-only span (no Spark or GC reads); `tag` is free
    * for the caller, e.g. a query's index in its set.
    */
  def local[A](name: String, tag: Int = -1)(f: => A): A =
    if (!enabled) f
    else record(name, tag, f)((id, parent, start, end) => Span(id, opId, name, parent, tag, start, end, 0, 0, 0, 0))

  private def record[A](name: String, tag: Int, f: => A)(done: (Int, Int, Long, Long) => Span): A = {
    val id = spans.length
    spans += null // reserve the id; filled in when the span ends
    val parent = stack.lastOption.getOrElse(-1)
    stack += id
    val start = System.nanoTime()
    try f
    finally {
      val end = System.nanoTime()
      stack.remove(stack.length - 1)
      spans(id) = done(id, parent, start, end)
    }
  }

  private def drain(): Unit = sc.foreach(org.apache.spark.ListenerDrain(_))

  /** Self time of every span: its duration minus its children's. */
  def selfNs: Array[Long] = {
    val self = spans.map(_.durNs).toArray
    spans.foreach(s => if (s.parent >= 0) self(s.parent) -= s.durNs)
    self
  }

  /** Writes all spans as tab-separated lines. */
  def write(path: java.nio.file.Path): Unit = {
    val header = "id\top\tname\tparent\ttag\tstart_ns\tend_ns\tjobs\tstages\ttasks\tgc_ms"
    val lines = header +: spans.iterator.map { s =>
      Seq(s.id, s.op, s.name, s.parent, s.tag, s.startNs, s.endNs, s.jobs, s.stages, s.tasks, s.gcMs).mkString("\t")
    }.toSeq
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.write(path, lines.asJava)
    ()
  }
}
