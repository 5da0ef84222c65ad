package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.blocking.Blocking
import repro.graph.ConnectedComponents

/** Pre Graph Cleanup (paper §4.2.1).
  *
  * Sets of pairwise predictions can produce exceedingly large connected
  * components (token-sharing company names chain thousands of records);
  * Algorithm 1's edge-removal techniques are too slow on those. Before the
  * GraLMatch cleanup, all positively predicted matches whose *only* blocking
  * provenance is Token Overlap are removed from connected components larger
  * than `maxComponent` (50 in the paper) records.
  *
  * The component sizes come from the transitive closure of the edges; the
  * pipeline passes the closure it has already computed for its stage-2
  * scores.
  */
object PreCleanup {

  /** @param edges positive predictions with `src`, `dst` and a `blockings`
    *              array column (the provenance of the candidate pair)
    * @return the retained edges (same schema)
    */
  def run(
      spark: SparkSession,
      edges: DataFrame,
      maxComponent: Int = 50
  ): DataFrame =
    run(edges, ConnectedComponents.run(spark, edges.select("src", "dst")), maxComponent)

  /** @param edges  positive predictions with `src`, `dst` and a `blockings`
    *               array column (the provenance of the candidate pair)
    * @param assign `(id, component)`: the connected components of `edges`
    *               (records without an edge may appear as singletons)
    * @return the retained edges (same schema)
    */
  def run(edges: DataFrame, assign: DataFrame, maxComponent: Int): DataFrame = {
    val compSize = assign.groupBy("component").agg(count(lit(1)).as("size"))
    val bigComps = compSize.where(col("size") > maxComponent).select("component")
    val compOf = assign
      .join(bigComps, "component")
      .select(col("id").as("src"), lit(true).as("inBig"))

    val tokenOnly =
      size(filter(col("blockings"), b => b =!= lit(Blocking.TokenOverlap))) === 0

    edges
      .join(compOf, Seq("src"), "left")
      .where(!(coalesce(col("inBig"), lit(false)) && tokenOnly))
      .drop("inBig")
  }
}
