package repro.core

import scala.collection.mutable
import repro.core.HierarchicalGrid.CellKey

/** One indexed target vector: its column, its pivot-space image (for
  * Lemma 1/2 per-vector tests during verification) and the original
  * vector (for exact distance computation).
  */
final case class Posting(
    colId: Int,
    mapped: Array[Double],
    original: Array[Double],
) extends Serializable

/** Inverted index from leaf cells of `HG_SV` to column postings
  * (paper Section III-C, Fig. 4).
  *
  * Postings within a cell are sorted by column id — the DaaT
  * (document-at-a-time) order that lets verification process one column's
  * candidates together and apply the early-termination rules (joinability
  * reached, or Lemma 7 says the column can no longer reach `T`). Each
  * column's postings in a cell therefore form one contiguous run.
  */
final class InvertedIndex private (
    val postings: Map[CellKey, Array[Posting]],
) extends Serializable {

  /** Distinct column ids with at least one vector in `cell`, ascending:
    * the first column id of each run of the column-sorted postings.
    */
  def columnsIn(cell: CellKey): Iterator[Int] = {
    val posts = postingsIn(cell)
    posts.indices.iterator
      .filter(i => i == 0 || posts(i).colId != posts(i - 1).colId)
      .map(posts(_).colId)
  }

  /** All postings of a cell (any column), sorted by column id. */
  def postingsIn(cell: CellKey): Array[Posting] =
    postings.getOrElse(cell, Array.empty)

  def numCells: Int = postings.size
  def numPostings: Long = postings.valuesIterator.map(_.length.toLong).sum
}

object InvertedIndex {

  /** Build from (leaf cell, posting) pairs accumulated during indexing. */
  def build(entries: mutable.Map[CellKey, mutable.ArrayBuffer[Posting]]): InvertedIndex =
    new InvertedIndex(entries.iterator.map { case (cell, buf) =>
      cell -> buf.toArray.sortBy(_.colId)
    }.toMap)
}
