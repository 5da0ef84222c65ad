package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.util.Random

import repro.blocking._
import repro.core._
import repro.datagen.EmDatasets
import repro.exp.Experiments
import repro.graph.{Betweenness, ConnectedComponents, LocalGraph, MinCut}
import repro.matcher.{LogisticModel, ModelZoo, PairwiseMatcher}
import repro.matcher.PairwiseMatcher.RecordSchema

/** Quality of one run's final groups against ground truth (stage 3). */
final case class Quality(f1: Double, precision: Double, recall: Double, purity: Double)

object Quality {
  def of(s: Pipeline.StageScores): Quality =
    Quality(s.scores.f1, s.scores.precision, s.scores.recall, s.clusterPurity)
}

/** One run's output: the `(id, group)` assignment and its quality. */
final case class RunOutput(groups: Array[(Long, Long)], quality: Quality)

/** A benchmark workload: `setup` builds and materialises the inputs, and
  * the returned [[Prepared]] runs the program on them.
  */
trait Workload {
  def thresholds: GraLMatch.Thresholds
  /** Quality EXPERIMENTS.md reports at the default seed and scale 1.0. */
  def paperQuality: Option[(String, String)]
  def setup(spark: SparkSession, t: Tracer): Prepared
}

abstract class Prepared {
  type R
  /** Ground truth `(recordId, entityId)` of the records being grouped. */
  def records: DataFrame
  def recordIds: Array[Long]
  /** Edges whose transitive closure every final group must lie inside. */
  def positives: Array[(Long, Long)]
  /** Counts taken at the set-up's layer boundaries. */
  def setupCounts: Seq[Metric]
  /** The timed call into the program. */
  def execute(): R
  /** Output of a finished run; not timed. */
  def output(r: R): RunOutput
  /** The run re-composed from the layers' public functions, one span per
    * layer, with each boundary materialised. Returns the output and the
    * edges that went into Algorithm 1.
    */
  def traced(t: Tracer): (RunOutput, Array[(Long, Long)], Seq[Metric])
  /** A direct closure call for workloads whose run makes none outside
    * Algorithm 1; traced after the run.
    */
  def closureProbe(t: Tracer): Unit = ()
}

object Workloads {

  /** Span names in the order `Pipeline.run` (or the set-up before it)
    * reaches each layer.
    */
  val SetupSpans: Seq[String] = Seq(
    "datagen.generate", "blocking.id_overlap", "blocking.token_overlap",
    "blocking.issuer_match", "core.splits.labeled_pairs", "matcher.train")
  val RunSpans: Seq[String] = Seq(
    "matcher.featurize_score", "graph.cc_closure", "core.precleanup",
    "core.gralmatch", "core.metrics")

  def apply(name: String, seed: Long): Workload = name match {
    case "companies"  => new Companies(seed)
    case "securities" => new Securities(seed)
    case "cleanup"    => new Cleanup(seed)
    case other        => throw new IllegalArgumentException(s"unknown workload '$other'")
  }

  /** Shared by `companies` and `securities`: DistilBERT (128)-ALL
    * fine-tuned on the train split, then one `Pipeline.run`.
    */
  abstract class PipelineWorkload(seed: Long) extends Workload {
    /** Seeds move together; `--seed 7` gives `Experiments`' Seed/SplitSeed. */
    protected val splitSeed: Long = Experiments.SplitSeed + (seed - Experiments.Seed)
    protected val variant = ModelZoo.distilBert128All
    protected def schema: RecordSchema

    /** Generates `(all records with split, pipeline records, candidates)`
      * and counts them: generated records and pairs per blocking.
      */
    protected def inputs(spark: SparkSession, t: Tracer): (DataFrame, DataFrame, DataFrame, Seq[Metric])

    def setup(spark: SparkSession, t: Tracer): Prepared = {
      val (all, pipelineRecords, candidates, inputCounts) = inputs(spark, t)
      val train = all.where(col("split") === Splits.Train).select("recordId", "entityId")
      val (labeled, nLabeled) = t.span("core.splits.labeled_pairs") {
        val l = Splits.labeledPairs(train, seed = seed).cache()
        (l, l.count())
      }
      val (model, nTrain) = t.span("matcher.train") {
        PairwiseMatcher.train(PairwiseMatcher.featurize(
          labeled, all, schema, variant.scheme, variant.tokenBudget))
      }
      val counts = inputCounts ++ Seq(
        Metric("core.splits.labeled_pairs.rows", nLabeled.toDouble, "count"),
        Metric("matcher.train.pairs", nTrain.toDouble, "count"))
      new PipelinePrepared(spark, pipelineRecords, candidates, model, counts)
    }

    final class PipelinePrepared(
        spark: SparkSession, pipelineRecords: DataFrame, candidates: DataFrame,
        model: LogisticModel, counts: Seq[Metric]
    ) extends Prepared {
      type R = Pipeline.Result

      val records: DataFrame = pipelineRecords.select("recordId", "entityId")
      lazy val setupCounts: Seq[Metric] = {
        val pairs = Blocking.distinctPairs(candidates)
        val ent = records.select(col("recordId"), col("entityId"))
        val truePairs = pairs
          .join(ent.toDF("src", "eA"), "src").join(ent.toDF("dst", "eB"), "dst")
          .where(col("eA") === col("eB")).count()
        counts :+ Metric("blocking.true_pair_share", share(truePairs, pairs.count()), "ratio")
      }
      lazy val recordIds: Array[Long] =
        records.select("recordId").collect().map(_.getLong(0))
      lazy val positives: Array[(Long, Long)] =
        PairwiseMatcher.predict(model, PairwiseMatcher.featurize(
          Blocking.distinctPairs(candidates), pipelineRecords, schema,
          variant.scheme, variant.tokenBudget))
          .where(col("pred")).select("src", "dst").collect()
          .map(r => (r.getLong(0), r.getLong(1)))

      def execute(): Pipeline.Result = Pipeline.run(
        spark, pipelineRecords, candidates, model, schema,
        variant.scheme, variant.tokenBudget, thresholds)

      def output(r: Pipeline.Result): RunOutput =
        RunOutput(collectGroups(r.groups), Quality.of(r.postCleanup))

      def traced(t: Tracer): (RunOutput, Array[(Long, Long)], Seq[Metric]) = {
        val (pairs, nPairs) = t.span("matcher.featurize_score") {
          val p = candidates.groupBy("src", "dst")
            .agg(collect_set(col("blocking")).as("blockings")).cache()
          (p, p.count())
        }
        val (positives, nPositive) = t.span("matcher.featurize_score") {
          val featurized = PairwiseMatcher.featurize(
            pairs, pipelineRecords, schema, variant.scheme, variant.tokenBudget)
          val p = PairwiseMatcher.predict(model, featurized)
            .where(col("pred")).select("src", "dst", "blockings").cache()
          (p, p.count())
        }
        t.span("core.metrics")(Metrics.scorePairs(positives, pipelineRecords))
        val allIds = pipelineRecords.select(col("recordId").as("id"))
        val preAssign = t.span("graph.cc_closure") {
          val a = ConnectedComponents.run(spark, positives.select("src", "dst"), Some(allIds))
          a.count()
          a
        }
        t.span("core.metrics")(Metrics.scoreGroups(preAssign, pipelineRecords))
        val (kept, nKept) = t.span("core.precleanup") {
          val k = PreCleanup.run(spark, positives).cache()
          (k, k.count())
        }
        val groups = t.span("core.gralmatch") {
          val g = GraLMatch.run(spark, kept.select("src", "dst"), thresholds, Some(allIds))
            .withColumnRenamed("group", "component").cache()
          g.count()
          g
        }
        val (post, purity) = t.span("core.metrics")(Metrics.scoreGroups(groups, pipelineRecords))
        val keptEdges = kept.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1)))
        val out = RunOutput(
          collectGroups(groups.withColumnRenamed("component", "group")),
          Quality(post.f1, post.precision, post.recall, purity))
        val counts = Seq(
          Metric("matcher.featurize_score.pairs_in", nPairs.toDouble, "count"),
          Metric("matcher.featurize_score.positives_out", nPositive.toDouble, "count"),
          Metric("matcher.positive_share", share(nPositive, nPairs), "ratio"),
          Metric("core.precleanup.edges_in", nPositive.toDouble, "count"),
          Metric("core.precleanup.edges_out", nKept.toDouble, "count"),
          Metric("core.precleanup.drop_share", 1.0 - share(nKept, nPositive), "ratio"))
        (out, keptEdges, counts)
      }
    }

    /** A blocking's output, cached and counted inside its span. */
    protected def blocking(t: Tracer, span: String, df: => DataFrame): (DataFrame, Long) =
      t.span(span) { val c = df.cache(); (c, c.count()) }

    protected def inputCounts(records: Long, id: Long, token: Long, issuer: Long): Seq[Metric] = Seq(
      Metric("datagen.records", records.toDouble, "count"),
      Metric("blocking.id_overlap.pairs", id.toDouble, "count"),
      Metric("blocking.token_overlap.pairs", token.toDouble, "count"),
      Metric("blocking.issuer_match.pairs", issuer.toDouble, "count"))
  }

  /** Synthetic Companies (Experiments.syntheticCompanies): pipeline on the
    * test split, ID Overlap + Token Overlap, γ=25/μ=5.
    */
  final class Companies(seed: Long) extends PipelineWorkload(seed) {
    val thresholds = GraLMatch.Thresholds(25, 5)
    val paperQuality = Some(("75.52", "0.95"))
    protected def schema = RecordSchema.Companies

    protected def inputs(spark: SparkSession, t: Tracer) = {
      val (companies, securities, nRecords) = t.span("datagen.generate") {
        val data = EmDatasets.generate(spark, Experiments.syntheticParams.copy(seed = seed))
        val c = Splits.withSplit(data.companies.toDF(), splitSeed).cache()
        val s = data.securities.toDF().cache()
        s.count()
        (c, s, c.count())
      }
      val pipeline = t.span("datagen.generate") {
        val p = companies.where(col("split") === Splits.Test).cache()
        p.count()
        p
      }
      val secsOfPipeline = securities.join(
        pipeline.select(col("recordId").as("issuerRecordId")), Seq("issuerRecordId"), "left_semi")
      val (id, nId) = blocking(t, "blocking.id_overlap",
        IdOverlapBlocking.companyCandidates(pipeline, secsOfPipeline))
      val (token, nToken) = blocking(t, "blocking.token_overlap",
        TokenOverlapBlocking.candidates(pipeline, "name", topN = 5, maxDocFreq = 500))
      val cands = Blocking.combine(id, token).cache()
      cands.count()
      (companies, pipeline, cands, inputCounts(nRecords, nId, nToken, 0))
    }
  }

  /** Real Securities (Experiments.realSecurities): pipeline on all labeled
    * records, ID Overlap + Issuer Match, γ=40/μ=8.
    */
  final class Securities(seed: Long) extends PipelineWorkload(seed) {
    val thresholds = GraLMatch.Thresholds(40, 8)
    val paperQuality = Some(("96.83", "0.99"))
    protected def schema = RecordSchema.Securities

    protected def inputs(spark: SparkSession, t: Tracer) = {
      val (securities, companies, nRecords) = t.span("datagen.generate") {
        // the paper's Real Securities is one fixed dataset, and so is the
        // stand-in Experiments generates for it; the seed drives the split
        // and the fine-tuning, as in the paper's repeated runs
        val data = EmDatasets.generate(spark, Experiments.realParams)
        val s = Splits.withSplit(data.securities.toDF(), splitSeed).cache()
        val c = data.companies.toDF().cache()
        c.count()
        (s, c, s.count())
      }
      val (id, nId) = blocking(t, "blocking.id_overlap", IdOverlapBlocking.securityCandidates(securities))
      val (issuer, nIssuer) = blocking(t, "blocking.issuer_match", {
        // Issuer Match needs a previous matching of the issuers: company
        // groups are the components of the company id-overlap candidates
        val companyGroups = ConnectedComponents
          .run(spark, IdOverlapBlocking.companyCandidates(companies, securities).select("src", "dst"),
            Some(companies.select(col("recordId").as("id"))))
          .select(col("id").as("recordId"), col("component").as("group"))
        IssuerMatchBlocking.candidates(securities, companyGroups)
      })
      val cands = Blocking.combine(id, issuer).cache()
      cands.count()
      (securities, securities, cands, inputCounts(nRecords, nId, 0, nIssuer))
    }
  }

  /** `GraLMatch.run` alone on a planted prediction graph. */
  final class Cleanup(seed: Long) extends Workload {
    val thresholds = GraLMatch.Thresholds(25, 5)
    val paperQuality = None

    def setup(spark: SparkSession, t: Tracer): Prepared = {
      import spark.implicits._
      val (g, edgesDf, recordsDf) = t.span("datagen.generate") {
        val g = PlantedGraph.generate(seed)
        val parts = spark.sparkContext.defaultParallelism
        val e = spark.sparkContext.parallelize(g.edges.toSeq, parts).toDF("src", "dst").cache()
        val r = spark.sparkContext.parallelize(g.vertices.indices.map(i => (g.vertices(i), g.entity(i))), parts)
          .toDF("recordId", "entityId").cache()
        e.count(); r.count()
        (g, e, r)
      }
      new Prepared {
        type R = Array[(Long, Long)]
        val records: DataFrame = recordsDf
        val recordIds: Array[Long] = g.vertices
        val positives: Array[(Long, Long)] = g.edges
        val setupCounts: Seq[Metric] = Seq(
          Metric("datagen.records", g.vertices.length.toDouble, "count"))
        private val ids = recordsDf.select(col("recordId").as("id"))

        def execute(): Array[(Long, Long)] =
          collectGroups(GraLMatch.run(spark, edgesDf, thresholds, Some(ids)))

        // scoring is deterministic in the groups, so it is done once per
        // distinct assignment rather than after every run
        private var scored = Option.empty[(String, Quality)]

        def output(groups: Array[(Long, Long)]): RunOutput = {
          val fp = GroupChecks.fingerprint(groups)
          val q = scored.collect { case (`fp`, q) => q }.getOrElse {
            val (s, purity) = Metrics.scoreGroups(groups.toSeq.toDF("id", "component"), recordsDf)
            Quality(s.f1, s.precision, s.recall, purity)
          }
          scored = Some((fp, q))
          RunOutput(groups, q)
        }

        def traced(t: Tracer): (RunOutput, Array[(Long, Long)], Seq[Metric]) = {
          val groups = t.span("core.gralmatch")(execute())
          (output(groups), g.edges, Nil)
        }

        override def closureProbe(t: Tracer): Unit =
          t.span("graph.cc_closure")(ConnectedComponents.run(spark, edgesDf).count())
      }
    }
  }

  private def share(a: Long, b: Long): Double = if (b == 0) 0.0 else a.toDouble / b

  def collectGroups(groups: DataFrame): Array[(Long, Long)] =
    groups.select(col("id").cast("long"), col("group").cast("long")).collect()
      .map(r => (r.getLong(0), r.getLong(1)))

  /** `GraLMatch.cleanupComponent`'s default `maxLocalVertices`: larger
    * components pass through Algorithm 1 unsplit.
    */
  val ValveVertices = 1500

  /** Single-threaded driver calls on each component of Algorithm 1's input
    * edges: per-component cleanup time, the first minimum cut of each
    * component above γ, and one betweenness pass on each above μ.
    */
  def componentProbe(edges: Array[(Long, Long)], th: GraLMatch.Thresholds, runS: Double): Seq[Metric] = {
    def timed[T](body: => T): Double = { val t0 = System.nanoTime(); body; (System.nanoTime() - t0) / 1e9 }
    val comps = UnionFind.components(edges.toSeq).toSeq
    val sizes = comps.map(c => c.flatMap(e => Seq(e._1, e._2)).distinct.size)
    val tractable = comps.zip(sizes).filter(_._2 <= ValveVertices)
    val cleanupS = comps.map(c => timed(GraLMatch.cleanupComponent(c, th))).sorted
    val firstCut = tractable.collect { case (c, n) if n > th.gamma =>
      timed(MinCut.minimumEdgeCut(LocalGraph.fromEdges(c))) }
    val betweenness = tractable.collect { case (c, n) if n > th.mu =>
      timed(Betweenness.maxBetweennessEdge(LocalGraph.fromEdges(c))) }
    val maxCleanup = cleanupS.lastOption.getOrElse(0.0)
    Seq(
      Metric("core.gralmatch.edges_in", edges.length.toDouble, "count"),
      Metric("core.gralmatch.max_component_in", sizes.maxOption.getOrElse(0).toDouble, "count"),
      Metric("core.gralmatch.valve_components", sizes.count(_ > ValveVertices).toDouble, "count"),
      Metric("core.gralmatch.straggler_share", if (runS > 0) maxCleanup / runS else 0.0, "ratio"),
      Metric("graph.cleanup_component.s.p50", if (cleanupS.isEmpty) 0.0 else cleanupS(cleanupS.size / 2), "s"),
      Metric("graph.cleanup_component.s.max", maxCleanup, "s"),
      Metric("graph.cleanup_component.s.sum", cleanupS.sum, "s"),
      Metric("graph.cleanup_component.count", cleanupS.size.toDouble, "count"),
      Metric("graph.mincut.first_cut_s.max", firstCut.maxOption.getOrElse(0.0), "s"),
      Metric("graph.betweenness.s.max", betweenness.maxOption.getOrElse(0.0), "s"))
  }
}

/** Seeded prediction graph with planted ground truth for `cleanup`.
  *
  * Ground-truth groups of 2–8 records are dense inside (each pair linked
  * with probability 0.7, plus a path so the group is connected). Groups are
  * joined into components by sparse false-positive edges: each group after
  * the first links to the component's first group, and with probability
  * 0.3 by a second edge, the way one widely named entity attracts false
  * matches. The star keeps the components' diameter, and so the number of
  * connected-components rounds, nearly the same for every seed. Component sizes: [[BulkComponents]] between 10
  * and 40 records, plus the [[TailSizes]] tail that Algorithm 1's min cut,
  * superlinear in the component size, turns into the run's straggler.
  */
object PlantedGraph {

  val BulkComponents = 200
  val TailSizes: Seq[Int] = Seq(100, 160)

  final case class Graph(vertices: Array[Long], entity: Array[Long], edges: Array[(Long, Long)])

  def generate(seed: Long): Graph = {
    val rng = new Random(seed)
    val sizes = Seq.fill(BulkComponents)(10 + rng.nextInt(31)) ++ TailSizes
    val entity = scala.collection.mutable.ArrayBuffer.empty[Long]
    val edges  = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
    var nGroups = 0L
    for (target <- sizes) {
      val groups = scala.collection.mutable.ArrayBuffer.empty[Range]
      var n = 0
      while (n < target) {
        val start = entity.size
        val size  = 2 + rng.nextInt(7)
        entity ++= Seq.fill(size)(nGroups)
        nGroups += 1
        val g = start until start + size
        val order = rng.shuffle(g.toVector)
        order.sliding(2).foreach { case Seq(a, b) => edges += ((a, b)); case _ => }
        for (a <- g; b <- g if a < b && rng.nextDouble() < 0.7) edges += ((a, b))
        if (groups.nonEmpty) {
          val links = if (rng.nextDouble() < 0.3) 2 else 1
          for (_ <- 0 until links) {
            val hub = groups.head
            edges += ((g(rng.nextInt(size)), hub(rng.nextInt(hub.size))))
          }
        }
        groups += g
        n += size
      }
    }
    // record ids in a seeded random order, so components are not id ranges
    val ids = rng.shuffle((0L until entity.size.toLong).toVector).map(_ + 1L).toArray
    val canon = edges.iterator.map { case (a, b) => LocalGraph.canonical(ids(a), ids(b)) }
      .filter { case (a, b) => a != b }.toArray.distinct
    Graph(ids, entity.toArray, canon)
  }
}
