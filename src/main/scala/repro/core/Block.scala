package repro.core

import scala.collection.mutable
import repro.core.HierarchicalGrid.CellKey

/** Output of the blocking phase: pairs of (query vector index, target leaf
  * cell). Matching pairs are proven matches (Lemmas 5/6); candidate pairs
  * survived filtering (Lemmas 3/4) and need verification.
  */
final case class BlockResult(
    matching: mutable.ArrayBuffer[(Int, CellKey)],
    candidates: mutable.ArrayBuffer[(Int, CellKey)],
)

/** Blocking (paper Algorithm 1) + quick browsing (Section III-C).
  *
  * A dual descent over `HG_Q` and `HG_SV` built with the same number of
  * levels: same-level cells are compared with the cell–cell lemmas and
  * expanded simultaneously; at the leaf level the vector–cell lemmas
  * produce the final matching/candidate pairs.
  */
object Block {

  /** Run quick browsing followed by Algorithm 1.
    *
    * Quick browsing: a query leaf cell whose key also exists in `HG_SV`
    * refers to the same space region, so it can never be filtered by
    * Lemma 3/4 — its query vectors pair with that target cell as
    * candidates immediately, and the recursive descent skips identical
    * leaf pairs to avoid redundant work.
    *
    * @param hgQ         grid over the mapped query vectors (leaves hold q ids)
    * @param hgS         grid over the mapped repository vectors
    * @param queryMapped mapped query vectors (indexed by q id)
    * @param tau         distance threshold
    */
  def run(
      hgQ: HierarchicalGrid,
      hgS: HierarchicalGrid,
      queryMapped: Array[Array[Double]],
      tau: Double,
  ): BlockResult = {
    require(hgQ.levels == hgS.levels, "HG_Q and HG_SV must share the level count")
    val res = BlockResult(mutable.ArrayBuffer.empty, mutable.ArrayBuffer.empty)

    hgQ.leafCells.foreach { qLeaf =>
      if (hgS.leaf(qLeaf.key).isDefined) {
        qLeaf.payloads.foreach(q => res.candidates += ((q, qLeaf.key)))
      }
    }

    descend(hgQ.root, hgS.root, queryMapped, tau, res)
    res
  }

  private def descend(
      cQ: HierarchicalGrid#GridNode,
      cS: HierarchicalGrid#GridNode,
      queryMapped: Array[Array[Double]],
      tau: Double,
      res: BlockResult,
  ): Unit = {
    cQ.children.valuesIterator.foreach { cq =>
      cS.children.valuesIterator.foreach { cs =>
        if (cq.isLeaf && cs.isLeaf) {
          // identical leaf pairs were handled by quick browsing already
          if (!java.util.Arrays.equals(cq.coords, cs.coords)) {
            cq.payloads.foreach { q =>
              val qm = queryMapped(q)
              if (GridGeometry.vectorCellMatched(cs, qm, tau))
                res.matching += ((q, cs.key))
              else if (!GridGeometry.vectorCellFiltered(cs, qm, tau))
                res.candidates += ((q, cs.key))
            }
          }
        } else if (GridGeometry.cellCellMatched(cs, cq, tau)) {
          val qs = cq.subtreePayloads.toArray
          cs.leaves.foreach { leaf =>
            val key = leaf.key
            qs.foreach(q => res.matching += ((q, key)))
          }
        } else if (!GridGeometry.cellCellFiltered(cs, cq, tau)) {
          descend(cq, cs, queryMapped, tau, res)
        }
      }
    }
  }
}
