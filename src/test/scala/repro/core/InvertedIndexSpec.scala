package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import repro.TestData

/** The inverted index keeps each cell's postings sorted by column, so a
  * column's postings form one run and `columnsIn` is derived from the runs.
  */
class InvertedIndexSpec extends AnyFunSuite {

  private def checkRuns(inv: InvertedIndex): Unit =
    inv.postings.keys.foreach { cell =>
      val cols = inv.postingsIn(cell).map(_.colId).toSeq
      assert(cols == cols.sorted, s"cell $cell postings not sorted by column")
      assert(inv.columnsIn(cell).toSeq == cols.distinct, s"cell $cell")
    }

  test("postings sorted by column; columnsIn lists each column of a cell once") {
    val a = ArraySeq(0, 0)
    val b = ArraySeq(1, 0)
    def p(col: Int) = Posting(col, Array(0.0), Array(col.toDouble))
    val entries = mutable.HashMap(
      a -> mutable.ArrayBuffer(p(3), p(1), p(3), p(2), p(1), p(3)),
      b -> mutable.ArrayBuffer(p(5)))
    val inv = InvertedIndex.build(entries)
    assert(inv.postingsIn(a).map(_.colId).toSeq == Seq(1, 1, 2, 3, 3, 3))
    assert(inv.columnsIn(a).toSeq == Seq(1, 2, 3))
    assert(inv.columnsIn(b).toSeq == Seq(5))
    assert(inv.columnsIn(ArraySeq(9, 9)).isEmpty)
    assert(inv.postingsIn(ArraySeq(9, 9)).isEmpty)
    assert(inv.numCells == 2)
    assert(inv.numPostings == 7L)
  }

  test("a built index has one cell per grid leaf and one posting per vector") {
    for (seed <- 1L to 5L; levels <- Seq(1, 3, 5)) {
      val (cols, _) = TestData.searchInstance(seed)
      val index = PexesoIndex.build(cols, numPivots = 3, levels = levels)
      val inv = index.inverted
      assert(inv.numCells == index.grid.leafCells.size)
      assert(inv.numPostings == cols.map(_.size.toLong).sum)
      checkRuns(inv)
    }
  }
}
