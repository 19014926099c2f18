package repro.baselines

import scala.collection.mutable
import repro.core.{ColumnVectors, PivotSelection, PivotSet, PivotSpace, Posting, SearchResult}
import repro.embed.VectorOps

/** EPT — pivot table competitor of paper Section VI-A (Ruiz et al. [27],
  * suggested by [5] for its competitiveness).
  *
  * A LAESA-style table: every repository vector is stored with its pivot
  * mapping (`PivotSet.map`, paper Section III-A); a range query maps the
  * query vector, then scans the table pruning any vector that Lemma 1
  * (`PivotSpace.filteredByPivots`) rules out, and verifies the survivors
  * with exact distances. Pivots are chosen farthest-first ("extreme"
  * pivots — spread-out outliers).
  */
final class PivotTable(
    val pivots: PivotSet,
    /** vectors flattened in column order, mapped by `pivots` */
    val postings: Array[Posting],
) extends Serializable

object PivotTable {

  /** Index of the first pivot in the flattened repository (mod its size). */
  private val FirstPivot = 11L

  def build(columns: Seq[ColumnVectors], numPivots: Int): PivotTable = {
    require(numPivots >= 1, s"need numPivots >= 1, got $numPivots")
    val all = columns.iterator.flatMap(c => c.vectors.iterator.map(v => (c.colId, v))).toArray
    require(all.nonEmpty, "empty repository")
    val vectors = all.toIndexedSeq.map(_._2)
    val first = (FirstPivot % all.length).toInt
    val pivots = PivotSet(PivotSelection.farthestFirst(vectors, Seq(first), numPivots).map(vectors(_)))
    new PivotTable(pivots, all.map { case (col, v) => Posting(col, pivots.map(v), v) })
  }

  /** EPT joinable-column search: [[RangeSearch]] whose range query scans
    * the table, pruning by Lemma 1 and verifying the rest with exact
    * distances.
    */
  def search(
      table: PivotTable,
      query: Array[Array[Double]],
      tau: Double,
      tFrac: Double,
  ): SearchResult = {
    var dist = 0L
    RangeSearch.joinable(query, tFrac, () => dist) { (qv, skip) =>
      val qm = table.pivots.map(qv)
      dist += table.pivots.numPivots
      val hit = mutable.HashSet.empty[Int]
      var i = 0
      while (i < table.postings.length) {
        val p = table.postings(i)
        if (!skip(p.colId) && !hit.contains(p.colId) &&
            !PivotSpace.filteredByPivots(qm, p.mapped, tau)) {
          dist += 1
          if (VectorOps.euclidean(qv, p.original) <= tau) hit += p.colId
        }
        i += 1
      }
      hit
    }
  }
}
