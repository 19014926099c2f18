package repro.baselines

import scala.collection.mutable
import repro.core.{ColumnVectors, SearchResult}
import repro.embed.VectorOps

/** Cover tree range index — the CTREE competitor of paper Section VI-A
  * (Beygelzimer et al. / Izbicki–Shelton [14]).
  *
  * Invariant maintained: every child of a node at level ℓ is at level ℓ−1
  * and within distance 2^ℓ of it, so the subtree of a level-ℓ node lies
  * within radius 2^(ℓ+1). (The separation invariant is not enforced — it
  * affects balance, not correctness of range search.)
  */
final class CoverTree private extends Serializable {

  final class Node(val point: Array[Double], val colId: Int, var level: Int) extends Serializable {
    val children = mutable.ArrayBuffer.empty[Node]
  }

  private var root: Node = _
  @transient private var countDist: Long = 0L
  def distanceComputations: Long = countDist

  private def d(a: Array[Double], b: Array[Double]): Double = {
    countDist += 1
    VectorOps.euclidean(a, b)
  }

  def insert(p: Array[Double], colId: Int): Unit = {
    if (root == null) { root = new Node(p, colId, 1); return }
    val dr = d(p, root.point)
    while (dr > math.pow(2, root.level)) root.level += 1
    insertRec(root, p, colId)
  }

  private def insertRec(node: Node, p: Array[Double], colId: Int): Unit = {
    // precondition: d(p, node) ≤ 2^node.level
    val childCover = math.pow(2, node.level - 1)
    var i = 0
    while (i < node.children.length) {
      val c = node.children(i)
      if (d(p, c.point) <= childCover) { insertRec(c, p, colId); return }
      i += 1
    }
    node.children += new Node(p, colId, node.level - 1)
  }

  /** Distinct column ids with ≥1 vector within `tau` of `q`, excluding
    * columns in `skip` (the shared early-termination rule).
    */
  def rangeColumns(q: Array[Double], tau: Double, skip: Int => Boolean): Set[Int] = {
    val hit = mutable.HashSet.empty[Int]
    def rec(n: Node): Unit = {
      val dq = d(q, n.point)
      if (dq <= tau && !skip(n.colId)) hit += n.colId
      // descendants lie within 2^n.level of any child, within 2^(level+1) of n
      if (dq - tau <= math.pow(2, n.level + 1)) n.children.foreach(rec)
    }
    if (root != null) rec(root)
    hit.toSet
  }
}

object CoverTree {

  def build(columns: Seq[ColumnVectors]): CoverTree = {
    require(columns.nonEmpty, "empty repository")
    val t = new CoverTree
    columns.foreach(c => c.vectors.foreach(v => t.insert(v, c.colId)))
    t
  }

  /** CTREE joinable-column search: [[RangeSearch]] over
    * [[CoverTree.rangeColumns]], counting the tree's distance computations.
    */
  def search(
      tree: CoverTree,
      query: Array[Array[Double]],
      tau: Double,
      tFrac: Double,
  ): SearchResult = {
    val d0 = tree.distanceComputations
    RangeSearch.joinable(query, tFrac, () => tree.distanceComputations - d0)(tree.rangeColumns(_, tau, _))
  }
}
