package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.testkit.Props

class LocalGraphSpec extends AnyFunSuite with Props {

  private def g(edges: (Long, Long)*): LocalGraph = LocalGraph.fromEdges(edges)

  test("empty graph has no vertices and no edges") {
    val e = LocalGraph.fromEdges(Nil)
    assert(e.numVertices == 0)
    assert(e.numEdges == 0)
    assert(e.components.isEmpty)
  }

  test("single edge yields two vertices, one edge") {
    val gr = g(1L -> 2L)
    assert(gr.vertices == Set(1L, 2L))
    assert(gr.edges == Seq((1L, 2L)))
    assert(gr.numEdges == 1)
  }

  test("edges are canonicalized src < dst") {
    assert(g(5L -> 2L).edges == Seq((2L, 5L)))
  }

  test("parallel edges collapse") {
    assert(g(1L -> 2L, 2L -> 1L, 1L -> 2L).numEdges == 1)
  }

  test("self loops contribute the vertex but no edge") {
    val gr = g(3L -> 3L)
    assert(gr.vertices == Set(3L))
    assert(gr.numEdges == 0)
  }

  test("extra vertices are kept as isolated vertices") {
    val gr = LocalGraph.fromEdges(Seq(1L -> 2L), extraVertices = Seq(9L))
    assert(gr.vertices == Set(1L, 2L, 9L))
    assert(gr.components.map(_.toSeq.sorted) == Seq(Seq(1L, 2L), Seq(9L)))
  }

  test("neighbors") {
    val gr = g(1L -> 2L, 1L -> 3L, 2L -> 3L, 3L -> 4L)
    assert(gr.neighbors(3L) == Set(1L, 2L, 4L))
    assert(gr.neighbors(99L).isEmpty)
  }

  test("components of a path graph") {
    val gr = g(1L -> 2L, 2L -> 3L, 3L -> 4L)
    assert(gr.components == Seq(Set(1L, 2L, 3L, 4L)))
    assert(gr.isConnected)
  }

  test("components of disjoint graphs") {
    val gr = g(1L -> 2L, 3L -> 4L, 5L -> 6L)
    assert(gr.components.size == 3)
    assert(!gr.isConnected)
  }

  test("subgraph keeps only induced edges") {
    val gr  = g(1L -> 2L, 2L -> 3L, 3L -> 4L, 4L -> 1L)
    val sub = gr.subgraph(Set(1L, 2L, 4L))
    assert(sub.vertices == Set(1L, 2L, 4L))
    assert(sub.edges == Seq((1L, 2L), (1L, 4L)))
  }

  test("removeEdges drops edges but keeps vertices") {
    val gr = g(1L -> 2L, 2L -> 3L).removeEdges(Set((2L, 3L)))
    assert(gr.vertices == Set(1L, 2L, 3L))
    assert(gr.edges == Seq((1L, 2L)))
    assert(gr.components.size == 2)
  }

  test("removeEdges accepts non-canonical edge order") {
    val gr = g(1L -> 2L).removeEdges(Set((2L, 1L)))
    assert(gr.numEdges == 0)
  }

  test("canonical helper orders endpoints") {
    assert(LocalGraph.canonical(7L, 3L) == (3L, 7L))
    assert(LocalGraph.canonical(3L, 7L) == (3L, 7L))
  }

  private val randomEdges: Gen[List[(Long, Long)]] =
    Gen.listOf(for {
      u <- Gen.choose(0L, 20L); v <- Gen.choose(0L, 20L)
    } yield (u, v))

  test("property: components partition the vertex set") {
    checkProp(Prop.forAll(randomEdges) { es =>
      val gr = LocalGraph.fromEdges(es)
      val cs = gr.components
      cs.flatten.toSet == gr.vertices && cs.map(_.size).sum == gr.numVertices
    })
  }

  test("property: every edge lies within one component") {
    checkProp(Prop.forAll(randomEdges) { es =>
      val gr = LocalGraph.fromEdges(es)
      val cs = gr.components
      gr.edges.forall { case (u, v) =>
        cs.count(c => c.contains(u) && c.contains(v)) == 1
      }
    })
  }

  test("property: union-find agrees with BFS components") {
    checkProp(Prop.forAll(randomEdges) { es =>
      val gr = LocalGraph.fromEdges(es)
      // independent union-find oracle
      val parent = scala.collection.mutable.Map.empty[Long, Long]
      def find(x: Long): Long = {
        val p = parent.getOrElseUpdate(x, x)
        if (p == x) x else { val r = find(p); parent(x) = r; r }
      }
      gr.vertices.foreach(find)
      es.filter { case (u, v) => u != v }.foreach { case (u, v) => parent(find(u)) = find(v) }
      val ufComps = gr.vertices.groupBy(find).values.map(_.toSet).toSet
      gr.components.toSet == ufComps
    })
  }
}
