package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Attributes Spark engine work to the benchmark span that submitted it.
  *
  * A span is named by a local property on the driver thread. Jobs carry the
  * local properties of the thread that submitted them, each stage belongs
  * to the span of the job that listed it, and each task to its stage's span.
  * Only stages that actually ran are counted (skipped stages never
  * complete). The listener is registered by the benchmark, never by the
  * program under test.
  */
final class SpanListener extends SparkListener {
  import SpanListener._

  final class Counters {
    var jobs, stages, tasks, cpuNs, runMs, shuffleBytes = 0L
  }

  private val bySpan    = mutable.Map.empty[String, Counters]
  private val jobSpan   = mutable.Map.empty[Int, String]
  private val stageSpan = mutable.Map.empty[Int, String]
  private var drainsSeen = 0L

  private def of(span: String) = bySpan.getOrElseUpdate(span, new Counters)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(Key))).foreach { s =>
      jobSpan(e.jobId) = s
      e.stageIds.foreach(stageSpan(_) = s)
      if (s != Drain) of(s).jobs += 1
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (jobSpan.remove(e.jobId).contains(Drain)) { drainsSeen += 1; notifyAll() }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageSpan.get(e.stageInfo.stageId).filter(_ != Drain).foreach(of(_).stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageSpan.get(e.stageId).filter(_ != Drain).foreach { s =>
      val c = of(s)
      c.tasks += 1
      Option(e.taskMetrics).foreach { m =>
        c.cpuNs += m.executorCpuTime
        c.runMs += m.executorRunTime
        c.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  /** Blocks until every listener event posted before this call has been
    * handled: events reach the listener in order, so once the end of a job
    * submitted now is seen, everything before it has been seen too.
    */
  def drain(sc: SparkContext): Unit = {
    val before = synchronized(drainsSeen)
    val prev = sc.getLocalProperty(Key)
    sc.setLocalProperty(Key, Drain)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.setLocalProperty(Key, prev)
    val deadline = System.nanoTime() + 60L * 1000000000L
    synchronized {
      while (drainsSeen == before) {
        require(System.nanoTime() < deadline, "Spark listener events did not drain within 60 s")
        wait(100)
      }
    }
  }

  def counters(span: String): Counters = synchronized(bySpan.getOrElse(span, new Counters))
}

object SpanListener {
  val Key   = "perfbench.span"
  val Drain = "perfbench.drain"
}

/** Wall-clock spans around calls into the program's layers. Re-entering a
  * span adds to it; spans are never nested.
  */
final class Tracer(sc: SparkContext, listener: SpanListener) {

  private val wall = mutable.LinkedHashMap.empty[String, Double]

  def span[T](name: String)(body: => T): T = {
    sc.setLocalProperty(SpanListener.Key, name)
    val t0 = System.nanoTime()
    try body
    finally {
      wall(name) = seconds(name) + (System.nanoTime() - t0) / 1e9
      sc.setLocalProperty(SpanListener.Key, null)
    }
  }

  def seconds(name: String): Double = wall.getOrElse(name, 0.0)

  /** `S.s`, `S.jobs`, `S.stages`, `S.tasks`, `S.task_cpu_s`, `S.shuffle_mb`
    * and `S.busy_share` (task time / (wall × cores)) for each span.
    */
  def metrics(spans: Seq[String], cores: Int): Seq[Metric] = {
    listener.drain(sc)
    spans.flatMap { n =>
      val c = listener.counters(n)
      val s = seconds(n)
      Seq(
        Metric(s"$n.s", s, "s"),
        Metric(s"$n.jobs", c.jobs.toDouble, "count"),
        Metric(s"$n.stages", c.stages.toDouble, "count"),
        Metric(s"$n.tasks", c.tasks.toDouble, "count"),
        Metric(s"$n.task_cpu_s", c.cpuNs / 1e9, "s"),
        Metric(s"$n.shuffle_mb", c.shuffleBytes / 1e6, "MB"),
        Metric(s"$n.busy_share", if (s > 0) c.runMs / 1e3 / (s * cores) else 0.0, "ratio"))
    }
  }
}

final case class Metric(name: String, value: Double, unit: String)
