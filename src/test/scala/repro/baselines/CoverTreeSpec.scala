package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.TestData
import repro.embed.VectorOps

class CoverTreeSpec extends AnyFunSuite {

  test("rangeColumns equals brute-force range search (randomized)") {
    for (seed <- 1L to 5L) {
      val rng = new Random(seed)
      val cols = TestData.clusteredColumns(rng, nCols = 8, colSize = 15, dim = 6)
      val tree = CoverTree.build(cols)
      (1 to 20).foreach { _ =>
        val q = TestData.unitVec(rng, 6)
        val tau = rng.nextDouble() * 0.8
        val got = tree.rangeColumns(q, tau, _ => false)
        val want = cols.filter(c =>
          c.vectors.exists(v => VectorOps.euclidean(q, v) <= tau)).map(_.colId).toSet
        assert(got == want, s"seed=$seed tau=$tau")
      }
    }
  }

  test("rangeColumns respects the skip predicate") {
    val rng = new Random(10)
    val cols = TestData.clusteredColumns(rng, nCols = 6, colSize = 10, dim = 6)
    val tree = CoverTree.build(cols)
    val q = cols.head.vectors.head
    val all = tree.rangeColumns(q, 0.5, _ => false)
    val skipped = tree.rangeColumns(q, 0.5, _ == cols.head.colId)
    assert(skipped == all - cols.head.colId)
  }

  test("CTREE search equals brute-force joinable search") {
    for (seed <- 20L to 24L) {
      val (cols, query) = TestData.searchInstance(seed)
      val tree = CoverTree.build(cols)
      for (tau <- Seq(0.2, 0.4); t <- Seq(0.3, 0.6)) {
        val got = CoverTree.search(tree, query, tau, t).joinable
        val want = NaiveSearch.search(cols, query, tau, t).joinable
        assert(got == want, s"seed=$seed tau=$tau T=$t")
      }
    }
  }

  test("distance computations are counted") {
    val (cols, query) = TestData.searchInstance(30)
    val tree = CoverTree.build(cols)
    val r = CoverTree.search(tree, query, 0.4, 0.5)
    assert(r.distanceComputations > 0)
  }

  test("a query equal to an indexed point always finds its column") {
    val (cols, _) = TestData.searchInstance(31)
    val tree = CoverTree.build(cols)
    cols.take(3).foreach { c =>
      val hit = tree.rangeColumns(c.vectors.head, 1e-12, _ => false)
      assert(hit.contains(c.colId))
    }
  }

  test("empty repository rejected") {
    intercept[IllegalArgumentException] { CoverTree.build(Seq.empty) }
  }
}
