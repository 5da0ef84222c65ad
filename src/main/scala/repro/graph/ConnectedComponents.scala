package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Distributed connected components over a DataFrame edge list.
  *
  * The pipeline runs it once, for the transitive closure of the positive
  * predictions; Pre Graph Cleanup and GraLMatch take their components from
  * that closure, because both only remove edges.
  *
  * Algorithm: iterative minimum-label propagation with pointer jumping.
  * Every vertex holds a candidate component label (initially its own id).
  * Each round a vertex takes the minimum label among itself and its
  * neighbours, then labels are short-circuited by one pointer-jumping hop
  * (label := label(label)), which brings convergence to O(log n) rounds on
  * path-like graphs instead of O(diameter). Each round is pure Catalyst
  * dataflow (joins + aggregations); lineage is truncated per round with a
  * local checkpoint.
  */
object ConnectedComponents {

  /** Computes connected components.
    *
    * @param edges    DataFrame with `src`/`dst` Long columns (undirected;
    *                 duplicates and self-loops tolerated)
    * @param vertices optional DataFrame with an `id` column for vertices that
    *                 must appear in the output even when isolated
    * @return DataFrame `(id: Long, component: Long)` where `component` is the
    *         minimum vertex id of the component
    */
  def run(
      spark: SparkSession,
      edges: DataFrame,
      vertices: Option[DataFrame] = None,
      maxIter: Int = 100
  ): DataFrame = {
    import spark.implicits._

    val e = edges.select($"src".cast("long"), $"dst".cast("long"))
    // Symmetric closure without self-loops; distinct so parallel edges don't
    // inflate the aggregation.
    val sym = e
      .where($"src" =!= $"dst")
      .select($"src".as("a"), $"dst".as("b"))
      .union(e.where($"src" =!= $"dst").select($"dst".as("a"), $"src".as("b")))
      .distinct()
      .localCheckpoint(true)

    val endpointIds = e.select($"src".as("id")).union(e.select($"dst".as("id")))
    val allIds = vertices
      .map(v => v.select($"id".cast("long")).union(endpointIds))
      .getOrElse(endpointIds)
      .distinct()

    var assign = allIds.select($"id", $"id".as("comp")).localCheckpoint(true)
    var iter = 0
    var converged = sym.isEmpty

    while (!converged && iter < maxIter) {
      val nbrMin = sym
        .join(assign, $"b" === $"id")
        .groupBy($"a")
        .agg(min($"comp").as("nbrComp"))

      val step = assign
        .join(nbrMin, assign("id") === nbrMin("a"), "left")
        .select(
          assign("id"),
          least(assign("comp"), coalesce($"nbrComp", assign("comp"))).as("comp")
        )

      // Pointer jump: follow the label one hop (comp := comp(comp)).
      val lookup = step.select($"id".as("cid"), $"comp".as("ccomp"))
      val jumped = step
        .join(lookup, step("comp") === lookup("cid"), "left")
        .select(step("id"), coalesce($"ccomp", step("comp")).as("comp"))
        .localCheckpoint(true)

      val changed = jumped
        .join(assign.withColumnRenamed("comp", "old"), "id")
        .where($"comp" =!= $"old")
        .limit(1)
        .count()
      assign = jumped
      converged = changed == 0
      iter += 1
    }
    require(converged, s"connected components did not converge in $maxIter iterations")
    assign.select($"id", $"comp".as("component"))
  }
}
