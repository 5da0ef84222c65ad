package repro.graph

import scala.collection.mutable

/** Immutable undirected graph over `Long` vertex ids, small enough to live in
  * one task.
  *
  * GraLMatch's Algorithm 1 operates per connected component: the distributed
  * pipeline groups the edge list by component id and hands each component's
  * edges to a task, which materializes it as a `LocalGraph` and runs the
  * per-component algorithms ([[MinCut]], [[Betweenness]]) locally.
  *
  * Edges are stored canonically with `src < dst`; self-loops are dropped and
  * parallel edges collapse. Vertices with no edges are representable (pass
  * them explicitly to [[LocalGraph.fromEdges]]).
  */
final class LocalGraph private (
    private val adj: Map[Long, Set[Long]]
) extends Serializable {

  /** All vertices, including isolated ones. */
  def vertices: Set[Long] = adj.keySet

  def numVertices: Int = adj.size

  /** Canonical edge list (`src < dst`), deterministic order. */
  def edges: Seq[(Long, Long)] =
    adj.toSeq
      .flatMap { case (u, ns) => ns.collect { case v if u < v => (u, v) } }
      .sorted

  def numEdges: Int = adj.valuesIterator.map(_.size).sum / 2

  def neighbors(v: Long): Set[Long] = adj.getOrElse(v, Set.empty)

  /** Connected components via BFS; deterministic order (by smallest member). */
  def components: Seq[Set[Long]] = {
    val seen = mutable.Set.empty[Long]
    val out  = mutable.ArrayBuffer.empty[Set[Long]]
    for (start <- vertices.toSeq.sorted if !seen(start)) {
      val comp  = mutable.Set(start)
      val queue = mutable.Queue(start)
      seen += start
      while (queue.nonEmpty) {
        val u = queue.dequeue()
        for (v <- neighbors(u) if !seen(v)) {
          seen += v; comp += v; queue += v
        }
      }
      out += comp.toSet
    }
    out.toSeq
  }

  /** Induced subgraph on `vs` (keeps isolated members of `vs`). */
  def subgraph(vs: Set[Long]): LocalGraph =
    new LocalGraph(
      vs.iterator.map(v => v -> neighbors(v).intersect(vs)).toMap
    )

  /** Graph with the given canonical edges removed; vertices are kept. */
  def removeEdges(toRemove: Set[(Long, Long)]): LocalGraph = {
    val norm = toRemove.map { case (u, v) => if (u < v) (u, v) else (v, u) }
    val m = adj.map { case (u, ns) =>
      u -> ns.filterNot(v => norm.contains(if (u < v) (u, v) else (v, u)))
    }
    new LocalGraph(m)
  }

  def isConnected: Boolean = numVertices <= 1 || components.size == 1
}

object LocalGraph {

  /** Builds a graph from an edge list plus optional isolated vertices. */
  def fromEdges(
      edgeList: Iterable[(Long, Long)],
      extraVertices: Iterable[Long] = Nil
  ): LocalGraph = {
    val adj = mutable.Map.empty[Long, mutable.Set[Long]]
    def slot(v: Long) = adj.getOrElseUpdate(v, mutable.Set.empty[Long])
    extraVertices.foreach(slot)
    for ((u, v) <- edgeList) {
      if (u != v) { slot(u) += v; slot(v) += u }
      else slot(u) // self-loop contributes the vertex only
    }
    new LocalGraph(adj.view.mapValues(_.toSet).toMap)
  }

  /** Canonical (src < dst) form of an edge. */
  def canonical(u: Long, v: Long): (Long, Long) = if (u < v) (u, v) else (v, u)
}
