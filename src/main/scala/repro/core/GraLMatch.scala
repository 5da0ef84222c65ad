package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.graph.{Betweenness, ConnectedComponents, LocalGraph, MinCut}

/** GraLMatch Graph Cleanup — Algorithm 1 of the paper.
  *
  * Input: the graph of positive pairwise predictions. Two phases per
  * connected component:
  *
  *  1. while a (sub)component is larger than γ, remove a *Minimum Edge Cut*
  *     (guaranteed to disconnect it, tends to cut the sparse false-positive
  *     links between dense groups);
  *  2. while a (sub)component is larger than μ, remove the single edge of
  *     highest *Edge Betweenness Centrality* and re-split.
  *
  * μ is set to the number of data sources (at most one record per source is
  * expected per group); γ trades cut quality for speed.
  *
  * Distribution: operations on one component never affect another, so the
  * paper's global argmax loop is equivalent to processing every component
  * independently — a `groupByKey(component).flatMapGroups` dataflow where
  * each task runs the two phases on its key's local edge list. The key may
  * come from the closure of a superset of the edges (the pipeline passes
  * the transitive closure of all positive predictions, of which Pre Graph
  * Cleanup keeps a subset): every component of the edges lies inside one
  * component of that closure, and each task splits its edges into their own
  * components before cleaning them.
  */
object GraLMatch {

  final case class Thresholds(gamma: Int, mu: Int) {
    require(gamma >= mu, s"gamma ($gamma) must be >= mu ($mu)")
  }

  /** Cleans up every connected component of `edges`: returns the final
    * record→group assignment of their vertices (group label = min record id
    * of the subcomponent). Exposed for testing.
    *
    * @param maxLocalVertices safety valve: components larger than this are
    *                         returned unsplit (the Pre Graph Cleanup is
    *                         responsible for keeping components tractable)
    */
  def cleanupComponent(
      edges: Seq[(Long, Long)],
      thresholds: Thresholds,
      maxLocalVertices: Int = 1500
  ): Seq[(Long, Long)] = {
    val whole = LocalGraph.fromEdges(edges)
    whole.components
      .flatMap { comp =>
        if (comp.size > maxLocalVertices) Seq(comp)
        else cleanupConnected(whole.subgraph(comp), thresholds)
      }
      .flatMap(c => c.toSeq.map(_ -> c.min))
  }

  /** Both phases of Algorithm 1 on one connected graph; returns its parts. */
  private def cleanupConnected(g0: LocalGraph, thresholds: Thresholds): Seq[Set[Long]] = {
    var g = g0

    // Phase 1: minimum edge cut until every subcomponent is <= gamma.
    var guard = g.numEdges + 1
    var work = g.components.filter(_.size > thresholds.gamma)
    while (work.nonEmpty && guard > 0) {
      val comp = work.head
      val cut  = MinCut.minimumEdgeCut(g.subgraph(comp))
      g = g.removeEdges(cut)
      guard -= math.max(1, cut.size)
      work = g.components.filter(_.size > thresholds.gamma)
    }

    // Phase 2: highest-betweenness edge removal until <= mu.
    guard = g.numEdges + 1
    var big = g.components.filter(_.size > thresholds.mu)
    while (big.nonEmpty && guard > 0) {
      val comp = big.head
      val e    = Betweenness.maxBetweennessEdge(g.subgraph(comp))
      g = g.removeEdges(Set(e))
      guard -= 1
      big = g.components.filter(_.size > thresholds.mu)
    }

    g.components
  }

  /** Runs the cleanup over the full prediction graph.
    *
    * @param edges    positive predictions (`src`, `dst`)
    * @param vertices optional `(id)` frame of all records to assign;
    *                 records without any edge become singleton groups
    * @return `(id, group)` — the final entity group assignment
    */
  def run(
      spark: SparkSession,
      edges: DataFrame,
      thresholds: Thresholds,
      vertices: Option[DataFrame] = None
  ): DataFrame =
    run(spark, edges, thresholds, ConnectedComponents.run(spark, edges, vertices))

  /** Runs the cleanup with a given component assignment.
    *
    * @param edges  positive predictions (`src`, `dst`)
    * @param assign `(id, component)` of every record to assign, from the
    *               connected components of `edges` or of a superset of
    *               them; records without any edge become singleton groups
    * @return `(id, group)` — the final entity group assignment
    */
  def run(
      spark: SparkSession,
      edges: DataFrame,
      thresholds: Thresholds,
      assign: DataFrame
  ): DataFrame = {
    import spark.implicits._

    val e = edges.select(col("src").cast("long"), col("dst").cast("long")).distinct()

    val byComp = e
      .join(assign.withColumnRenamed("id", "src"), "src")
      .select(col("component"), col("src"), col("dst"))
      .as[(Long, Long, Long)]

    val cleaned = byComp
      .groupByKey(_._1)
      .flatMapGroups { (_, rows) =>
        val es = rows.map(r => (r._2, r._3)).toSeq
        cleanupComponent(es, thresholds).iterator
      }
      .toDF("id", "group")

    val missing = assign.select(col("id")).join(cleaned, Seq("id"), "left_anti")
      .select(col("id"), col("id").as("group"))
    cleaned.unionByName(missing)
  }
}
