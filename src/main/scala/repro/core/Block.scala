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

/** Blocking (paper Algorithm 1) with quick browsing (Section III-C).
  *
  * A dual descent over `HG_Q` and `HG_SV` built with the same number of
  * levels: same-level cells are compared with the cell–cell lemmas and
  * expanded simultaneously; at the leaf level the vector–cell lemmas
  * produce the final matching/candidate pairs.
  */
object Block {

  /** Run Algorithm 1 with quick browsing folded into the descent.
    *
    * Quick browsing: a query leaf cell and the identical `HG_SV` leaf cell
    * cover the same space region, so Lemmas 3/4 can never filter the pair —
    * the query vectors in it pair with that target cell as candidates
    * without the lemma tests. These own-cell candidates come first in
    * `candidates`, so verification checks each query vector's own cell
    * before the others.
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
    val others = mutable.ArrayBuffer.empty[(Int, CellKey)]
    descend(hgQ.root, hgS.root, queryMapped, tau, res, others)
    res.candidates ++= others
    res
  }

  /** Own-cell candidates go to `res.candidates`, all other candidates to
    * `others`.
    */
  private def descend(
      cQ: HierarchicalGrid#GridNode,
      cS: HierarchicalGrid#GridNode,
      queryMapped: Array[Array[Double]],
      tau: Double,
      res: BlockResult,
      others: mutable.ArrayBuffer[(Int, CellKey)],
  ): Unit = {
    cQ.children.valuesIterator.foreach { cq =>
      cS.children.valuesIterator.foreach { cs =>
        if (cq.isLeaf && cs.isLeaf) {
          if (java.util.Arrays.equals(cq.coords, cs.coords)) {
            cq.payloads.foreach(q => res.candidates += ((q, cs.key))) // quick browsing
          } else {
            cq.payloads.foreach { q =>
              val qm = queryMapped(q)
              if (GridGeometry.vectorCellMatched(cs, qm, tau))
                res.matching += ((q, cs.key))
              else if (!GridGeometry.vectorCellFiltered(cs, qm, tau))
                others += ((q, cs.key))
            }
          }
        } else if (GridGeometry.cellCellMatched(cs, cq, tau)) {
          val qs = cq.subtreePayloads.toArray
          cs.leaves.foreach { leaf =>
            val key = leaf.key
            qs.foreach(q => res.matching += ((q, key)))
          }
        } else if (!GridGeometry.cellCellFiltered(cs, cq, tau)) {
          descend(cq, cs, queryMapped, tau, res, others)
        }
      }
    }
  }
}
