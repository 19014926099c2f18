package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.TestData
import repro.embed.VectorOps

class PivotTableSpec extends AnyFunSuite {

  test("entries carry correct pivot distances") {
    val rng = new Random(1)
    val cols = TestData.clusteredColumns(rng, 4, 8, 6)
    val pt = PivotTable.build(cols, numPivots = 3)
    pt.postings.take(10).foreach { p =>
      p.mapped.indices.foreach { i =>
        assert(math.abs(p.mapped(i) - VectorOps.euclidean(pt.pivots.pivots(i), p.original)) < 1e-12)
      }
    }
  }

  test("farthest-first pivots are pairwise distant") {
    val rng = new Random(2)
    val cols = TestData.clusteredColumns(rng, 6, 10, 6)
    val pt = PivotTable.build(cols, numPivots = 4)
    val ps = pt.pivots.pivots
    assert(ps.length == 4)
    for (i <- ps.indices; j <- (i + 1) until ps.length)
      assert(VectorOps.euclidean(ps(i), ps(j)) > 1e-9)
  }

  test("EPT search equals brute-force joinable search") {
    for (seed <- 40L to 44L) {
      val (cols, query) = TestData.searchInstance(seed)
      val pt = PivotTable.build(cols, numPivots = 3)
      for (tau <- Seq(0.2, 0.4); t <- Seq(0.3, 0.6)) {
        val got = PivotTable.search(pt, query, tau, t).joinable
        val want = NaiveSearch.search(cols, query, tau, t).joinable
        assert(got == want, s"seed=$seed tau=$tau T=$t")
      }
    }
  }

  test("pivot filter reduces exact distance computations vs naive") {
    val (cols, query) = TestData.searchInstance(50, nCols = 20, colSize = 30)
    val pt = PivotTable.build(cols, numPivots = 4)
    val ept = PivotTable.search(pt, query, 0.2, 0.5)
    val naive = NaiveSearch.search(cols, query, 0.2, 0.5, earlyTermination = false)
    assert(ept.distanceComputations < naive.distanceComputations)
  }

  test("numPivots capped by repository size") {
    val rng = new Random(3)
    val cols = TestData.clusteredColumns(rng, 1, 3, 4)
    val pt = PivotTable.build(cols, numPivots = 10)
    assert(pt.pivots.numPivots == 3)
  }

  test("empty repository rejected") {
    intercept[IllegalArgumentException] { PivotTable.build(Seq.empty, 2) }
  }

  test("numPivots = 0 rejected instead of building one pivot") {
    val cols = TestData.clusteredColumns(new Random(4), 2, 5, 4)
    intercept[IllegalArgumentException] { PivotTable.build(cols, numPivots = 0) }
  }
}
