package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.{CacheManager, CachedData}
import scala.collection.mutable

import repro.SparkSpec
import repro.exp.Experiments

/** Benchmark entry point; `perfbench/run.py` builds and launches it.
  *
  * {{{
  * Main --workload companies|securities|cleanup --seed N --seconds S --trace 0|1
  * }}}
  *
  * One process, one SparkSession from `SparkSpec.shared`, one run at a time
  * (closed loop). Set-up is repeated up to [[Main.SetupReps]] times while
  * the reps so far took less than [[Main.SetupBudgetS]]; runs are discarded
  * as warm-up until one agrees with the run before it within
  * [[Main.SettleTolerance]], or the discarded runs took
  * [[Main.WarmupBudgetS]]; from there, runs repeat until `--seconds` have
  * passed. Every run is checked
  * (see [[GroupChecks]]). With `--trace 1` a traced run follows the timed
  * ones and the per-layer metrics are printed instead of the end-to-end ones.
  * The last stdout line is the result object.
  */
object Main {

  // An invocation should finish in about 70 s on 4 cores, and one
  // Pipeline.run takes about 20 s at any scale (Spark job overhead), so
  // set-up repeats and warm-up discards stop at a time budget.
  val SetupReps       = 3
  val SetupBudgetS    = 20.0
  val WarmupBudgetS   = 10.0
  val SettleTolerance = 0.10

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean)

  def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    Args(
      m.getOrElse("workload", throw new IllegalArgumentException("--workload is required")),
      m.get("seed").map(_.toLong).getOrElse(Experiments.Seed),
      m.get("seconds").map(_.toInt).getOrElse(10),
      m.get("trace").contains("1"))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val spark = SparkSpec.shared
    // the listener is registered only for a traced invocation, so untraced
    // runs measure the program alone
    val listener = new SpanListener
    if (args.trace) spark.sparkContext.addSparkListener(listener)
    val ok = try new Bench(spark, listener, args).run() finally spark.stop()
    sys.exit(if (ok) 0 else 1)
  }

  /** Per-layer metrics other than spans, with their units; every workload
    * prints all of them (0 where the layer does not run).
    */
  val CountMetrics: Seq[(String, String)] = Seq(
    "datagen.records" -> "count",
    "blocking.id_overlap.pairs" -> "count",
    "blocking.token_overlap.pairs" -> "count",
    "blocking.issuer_match.pairs" -> "count",
    "blocking.true_pair_share" -> "ratio",
    "core.splits.labeled_pairs.rows" -> "count",
    "matcher.train.pairs" -> "count",
    "matcher.featurize_score.pairs_in" -> "count",
    "matcher.featurize_score.positives_out" -> "count",
    "matcher.positive_share" -> "ratio",
    "core.precleanup.edges_in" -> "count",
    "core.precleanup.edges_out" -> "count",
    "core.precleanup.drop_share" -> "ratio",
    "core.gralmatch.edges_in" -> "count",
    "core.gralmatch.groups_out" -> "count",
    "core.gralmatch.max_component_in" -> "count",
    "core.gralmatch.valve_components" -> "count",
    "core.gralmatch.straggler_share" -> "ratio",
    "graph.cleanup_component.s.p50" -> "s",
    "graph.cleanup_component.s.max" -> "s",
    "graph.cleanup_component.s.sum" -> "s",
    "graph.cleanup_component.count" -> "count",
    "graph.mincut.first_cut_s.max" -> "s",
    "graph.betweenness.s.max" -> "s",
    "trace.run_s" -> "s",
    "trace.span_sum_s" -> "s",
    "trace.overhead_s" -> "s",
    "run.warmups" -> "count")

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0 else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def json(v: Any): String = v match {
    case s: String     => "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
    } + "\""
    case d: Double     => if (d.isNaN || d.isInfinite) "null" else d.toString
    case b: Boolean    => b.toString
    case n: Int        => n.toString
    case n: Long       => n.toString
    case m: Seq[_]     => m.map {
      case (k: String, x) => json(k) + ": " + json(x)
      case x              => json(x)
    }.mkString(if (m.headOption.exists(_.isInstanceOf[(_, _)])) "{" else "[", ", ",
      if (m.headOption.exists(_.isInstanceOf[(_, _)])) "}" else "]")
    case other         => json(other.toString)
  }
  def obj(kv: (String, Any)*): String = json(kv.toSeq)
}

/** Storage the program leaves cached, and its release after a run. */
object SparkCache {

  // CacheManager keeps its entries private; listing them is the only way to
  // drop exactly the entries a run added (clearCache would also drop the
  // set-up's frames and move set-up work into the next run).
  private val cachedData = {
    val m = classOf[CacheManager].getDeclaredMethod("cachedData")
    m.setAccessible(true)
    m
  }

  final case class Snapshot(rdds: Set[Int], entries: Seq[CachedData])

  private def manager(spark: SparkSession): CacheManager =
    spark.asInstanceOf[org.apache.spark.sql.classic.SparkSession].sharedState.cacheManager

  private def entries(spark: SparkSession): Seq[CachedData] =
    cachedData.invoke(manager(spark)).asInstanceOf[IndexedSeq[CachedData]]

  def snapshot(spark: SparkSession): Snapshot =
    Snapshot(spark.sparkContext.getPersistentRDDs.keySet.toSet, entries(spark))

  /** MB (10^6 bytes) in memory or on disk held by RDDs persisted since
    * `before` that are still reachable. Spark's ContextCleaner unpersists
    * unreachable RDDs after a garbage collection, so without one the figure
    * would depend on when the last collection happened: collect, then read
    * until two reads 100 ms apart agree.
    */
  def retainedMb(spark: SparkSession, before: Snapshot): Double = {
    System.gc()
    settle(spark.sparkContext.getRDDStorageInfo
      .filterNot(i => before.rdds(i.id))
      .map(i => i.memSize + i.diskSize).sum / 1e6)
  }

  /** Lets the last run's garbage go before the next run starts. A
    * collection hands the shuffles, broadcasts and RDDs nothing references
    * any more to Spark's ContextCleaner, which deletes their files in the
    * background; without this the deletions of one run overlap the next
    * timed run. Waits until the file count under `SPARK_LOCAL_DIRS` stops
    * changing.
    */
  def quiesce(): Unit = {
    System.gc()
    val dirs = sys.env.get("SPARK_LOCAL_DIRS").toSeq.flatMap(_.split(','))
      .map(java.nio.file.Paths.get(_)).filter(java.nio.file.Files.isDirectory(_))
    def files(): Long = try dirs.map { d =>
      val s = java.nio.file.Files.walk(d)
      try s.count() finally s.close()
    }.sum catch {
      // a file deleted while the walk lists it: the cleaner is still busy
      case _: java.io.IOException | _: java.io.UncheckedIOException => -1L
    }
    Thread.sleep(200)
    settle(files())
  }

  /** Reads `value` every 100 ms until two reads agree (at most 5 s). */
  private def settle[T](value: => T): T = {
    var last = value
    var reads = 1
    var settled = false
    while (!settled && reads < 50) {
      Thread.sleep(100)
      val now = value
      settled = now == last
      last = now
      reads += 1
    }
    last
  }

  /** Unpersists exactly what was cached or checkpointed since `before`. */
  def release(spark: SparkSession, before: Snapshot): Unit = {
    val classic = spark.asInstanceOf[org.apache.spark.sql.classic.SparkSession]
    entries(spark).filterNot(e => before.entries.exists(_ eq e))
      .foreach(e => manager(spark).uncacheQuery(classic, e.plan, true, true))
    spark.sparkContext.getPersistentRDDs
      .collect { case (id, rdd) if !before.rdds(id) => rdd }
      .foreach(_.unpersist(blocking = true))
  }
}

final class Bench(spark: SparkSession, listener: SpanListener, args: Main.Args) {
  import Main._

  private val sc       = spark.sparkContext
  private val cores    = sc.defaultParallelism
  private val workload = Workloads(args.workload, args.seed)
  private val failures = mutable.ArrayBuffer.empty[String]
  private var attempted = 0
  private var failed    = 0
  private var quality: Option[Quality] = None

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def fail(what: String): Unit = {
    failures += what
    Console.err.println(s"[perfbench] FAILED: $what")
  }

  /** One checked run: its run_s and the MB it left cached, or None when
    * it threw. What the run cached is released after the reading.
    */
  private def runOnce(p: Prepared, checks: GroupChecks): Option[(Double, Double)] = {
    SparkCache.quiesce()
    val before = SparkCache.snapshot(spark)
    attempted += 1
    try {
      val t0 = System.nanoTime()
      val r = p.execute()
      val runS = seconds(t0)
      val out = p.output(r)
      val problems = checks(out.groups) ++ checkQuality(out.quality)
      if (problems.nonEmpty) { failed += 1; problems.foreach(fail) }
      Some((runS, SparkCache.retainedMb(spark, before)))
    } catch {
      case e: Exception =>
        failed += 1
        fail(s"run threw ${e.getClass.getName}: ${e.getMessage}")
        None
    } finally SparkCache.release(spark, before)
  }

  /** Quality is deterministic in (seed, data): every run must match the
    * first, and at the default seed and full scale the first must match
    * EXPERIMENTS.md's Table 4 row.
    */
  private def checkQuality(q: Quality): Seq[String] = quality match {
    case Some(first) if first != q => Seq(s"quality $q differs from the first run's $first")
    case Some(_) => Nil
    case None =>
      quality = Some(q)
      workload.paperQuality.toSeq.flatMap { case (f1, purity) =>
        val ours = (f"${q.f1 * 100}%.2f", f"${q.purity}%.2f")
        if (args.seed == Experiments.Seed && Experiments.scale == 1.0 && ours != ((f1, purity)))
          Seq(s"post F1 / purity $ours differ from EXPERIMENTS.md's ($f1, $purity)")
        else Nil
      }
  }

  def run(): Boolean = {
    // ---- set-up, repeated; the last one is kept ---------------------------
    var setupTracer = new Tracer(sc, listener)
    val reps = if (args.trace) 1 else SetupReps
    val setupS = mutable.ArrayBuffer.empty[Double]
    var prepared: Prepared = null
    var before = SparkCache.snapshot(spark)
    while (setupS.size < reps && setupS.sum < SetupBudgetS) {
      if (prepared != null) SparkCache.release(spark, before)
      before = SparkCache.snapshot(spark)
      setupTracer = new Tracer(sc, listener)
      val t0 = System.nanoTime()
      prepared = workload.setup(spark, setupTracer)
      setupS += seconds(t0)
    }
    val checks = new GroupChecks(prepared.recordIds, prepared.positives, workload.thresholds.mu)

    // ---- closed loop: warm-up, then timed runs for --seconds ---------------
    var warm = Vector.empty[Double]
    val runS = mutable.ArrayBuffer.empty[Double]
    val retained = mutable.ArrayBuffer.empty[Double]
    var timedFrom = 0L
    while (failed == 0 && (runS.isEmpty || seconds(timedFrom) < args.seconds)) {
      val start = System.nanoTime()
      runOnce(prepared, checks).foreach { case (s, mb) =>
        val settled = warm.sum >= WarmupBudgetS ||
          warm.lastOption.exists(p => math.abs(s - p) <= SettleTolerance * p)
        if (runS.isEmpty && !settled) warm :+= s
        else {
          if (runS.isEmpty) timedFrom = start
          runS += s
          retained += mb
        }
      }
    }

    val env = Seq(
      "workload" -> args.workload, "seed" -> args.seed,
      "git_sha" -> sys.props.getOrElse("perfbench.gitSha", "unknown"),
      "nproc" -> Runtime.getRuntime.availableProcessors(),
      "spark_master" -> sc.master, "spark_version" -> spark.version,
      "default_parallelism" -> cores,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "driver_memory_mb" -> Runtime.getRuntime.maxMemory() / 1000000L,
      "repro_scale" -> Experiments.scale,
      "jvm" -> System.getProperty("java.version"),
      "warmups_discarded" -> warm.size,
      "loop" -> "closed, one run at a time")
    println(obj("env" -> env))

    val metrics: Seq[Metric] =
      if (!args.trace) endToEnd(setupS.toSeq, runS.toSeq, median(retained.toSeq))
      else perLayer(prepared, checks, setupTracer, median(runS.toSeq), warm.size)

    val correct = failed == 0 && failures.isEmpty
    println(obj("summary" -> Seq(
      "failed_share" -> failed.toDouble / math.max(1, attempted),
      "run_s_samples" -> runS.toSeq, "setup_s_samples" -> setupS.toSeq,
      "warmup_s" -> warm, "retained_mb_samples" -> retained.toSeq, "group_fingerprint" -> checks.fingerprint,
      "failures" -> failures.toSeq)))
    println(obj(
      "correct" -> correct, "attempted" -> math.max(1, attempted), "failed" -> failed,
      "metrics" -> metrics.map(m => m.name -> Seq("value" -> m.value, "unit" -> m.unit))))
    correct
  }

  private def endToEnd(setupS: Seq[Double], runS: Seq[Double], retained: Double): Seq[Metric] = {
    val q = quality.getOrElse(Quality(0, 0, 0, 0))
    Seq(
      Metric("run_s", median(runS), "s"),
      Metric("setup_s", median(setupS), "s"),
      Metric("post_f1", q.f1, "ratio"),
      Metric("post_precision", q.precision, "ratio"),
      Metric("post_recall", q.recall, "ratio"),
      Metric("cluster_purity", q.purity, "ratio"),
      Metric("retained_cache_mb", retained, "MB"))
  }

  private def perLayer(
      p: Prepared, checks: GroupChecks, setupTracer: Tracer, untracedRunS: Double, warmups: Int
  ): Seq[Metric] = {
    val t = new Tracer(sc, listener)
    val before = SparkCache.snapshot(spark)
    attempted += 1
    val t0 = System.nanoTime()
    val (out, cleanupEdges, runCounts) = p.traced(t)
    val tracedS = seconds(t0)
    SparkCache.release(spark, before)
    val problems = checks(out.groups) ++ checkQuality(out.quality)
    if (problems.nonEmpty) { failed += 1; problems.foreach(fail) }
    val spanSum = Workloads.RunSpans.map(t.seconds).sum
    p.closureProbe(t)

    val counts = (p.setupCounts ++ runCounts ++
      Workloads.componentProbe(cleanupEdges, workload.thresholds, untracedRunS) ++ Seq(
        Metric("core.gralmatch.groups_out", out.groups.map(_._2).distinct.length.toDouble, "count"),
        Metric("trace.run_s", tracedS, "s"),
        Metric("trace.span_sum_s", spanSum, "s"),
        Metric("trace.overhead_s", tracedS - untracedRunS, "s"),
        Metric("run.warmups", warmups.toDouble, "count"))).map(m => m.name -> m).toMap
    val unknown = counts.keySet -- CountMetrics.map(_._1)
    require(unknown.isEmpty, s"metrics missing from CountMetrics: $unknown")
    setupTracer.metrics(Workloads.SetupSpans, cores) ++ t.metrics(Workloads.RunSpans, cores) ++
      CountMetrics.map { case (n, unit) => counts.getOrElse(n, Metric(n, 0.0, unit)) }
  }
}
