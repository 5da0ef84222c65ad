package repro.perfbench

import java.security.MessageDigest
import scala.collection.mutable

/** Union-find over record ids: the benchmark's own transitive closure. */
final class UnionFind {
  private val parent = mutable.HashMap.empty[Long, Long]

  def find(x: Long): Long = {
    var r = x
    while (parent.getOrElse(r, r) != r) r = parent(r)
    var y = x
    while (y != r) { val next = parent(y); parent(y) = r; y = next }
    r
  }

  def union(a: Long, b: Long): Unit = {
    val ra = find(a); val rb = find(b)
    if (ra != rb) { if (ra < rb) parent(rb) = ra else parent(ra) = rb }
  }
}

object UnionFind {
  def of(edges: Iterable[(Long, Long)]): UnionFind = {
    val uf = new UnionFind
    edges.foreach { case (a, b) => uf.union(a, b) }
    uf
  }

  /** The edges of each component spanned by `edges`. */
  def components(edges: Iterable[(Long, Long)]): Iterable[Seq[(Long, Long)]] = {
    val uf = of(edges)
    edges.groupBy { case (a, _) => uf.find(a) }.values.map(_.toSeq)
  }
}

/** Checks on one run's final group assignment `(id, group)`. */
final class GroupChecks(recordIds: Array[Long], positives: Array[(Long, Long)], mu: Int) {

  private val sortedIds = recordIds.sorted
  private val closure   = UnionFind.of(positives.toSeq)
  private var firstFingerprint: Option[String] = None

  def fingerprint: String = firstFingerprint.getOrElse("")

  /** Failed checks, empty when the assignment passes every one. */
  def apply(groups: Array[(Long, Long)]): Seq[String] = {
    val failures = mutable.ArrayBuffer.empty[String]
    val ids = groups.map(_._1).sorted
    if (!java.util.Arrays.equals(ids, sortedIds))
      failures += s"records are not assigned to exactly one group each " +
        s"(${groups.length} assignments, ${sortedIds.length} records)"
    val members = groups.groupBy(_._2)
    val split = members.count { case (_, ms) => ms.map(m => closure.find(m._1)).distinct.length > 1 }
    if (split > 0)
      failures += s"$split groups span more than one transitive-closure component"
    val largest = if (members.isEmpty) 0 else members.valuesIterator.map(_.length).max
    if (largest > mu) failures += s"a group has $largest members, more than mu = $mu"
    val fp = GroupChecks.fingerprint(groups)
    firstFingerprint match {
      case None => firstFingerprint = Some(fp)
      case Some(f) if f != fp => failures += s"group fingerprint $fp differs from the first run's $f"
      case _ =>
    }
    failures.toSeq
  }
}

object GroupChecks {
  /** SHA-256 of the sorted `(id, group)` pairs, first 16 hex digits. */
  def fingerprint(groups: Array[(Long, Long)]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(16)
    groups.sorted.foreach { case (id, g) =>
      buf.clear(); buf.putLong(id).putLong(g); md.update(buf.array())
    }
    md.digest().take(8).map(b => f"$b%02x").mkString
  }
}
