package repro.partition

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.TestData
import repro.core.ColumnVectors

class ColumnHistogramSpec extends AnyFunSuite {

  test("signature is a smoothed probability distribution (sums to 1, positive)") {
    val rng = new Random(1)
    val cols = TestData.clusteredColumns(rng, 5, 20, 6)
    val refs = ColumnHistogram.referencePoints(cols, 3)
    cols.foreach { c =>
      val sig = ColumnHistogram.signature(c, refs, bins = 8)
      assert(math.abs(sig.sum - 1.0) < 1e-9)
      assert(sig.forall(_ > 0.0))
      assert(sig.length == 3 * 8)
    }
  }

  test("referencePoints returns the requested count") {
    val rng = new Random(2)
    val cols = TestData.clusteredColumns(rng, 4, 10, 6)
    assert(ColumnHistogram.referencePoints(cols, 5).length == 5)
  }

  test("columns with the same distribution have near-identical signatures") {
    val rng = new Random(3)
    val center = TestData.unitVec(rng, 6)
    val mk = (id: Int) => ColumnVectors(id, s"c$id",
      Array.fill(200)(TestData.near(rng, center, 0.05)))
    val far = ColumnVectors(2, "far",
      Array.fill(200)(TestData.near(rng, center.map(-_), 0.05)))
    val cols = IndexedSeq(mk(0), mk(1), far)
    val refs = ColumnHistogram.referencePoints(cols, 4)
    val s0 = ColumnHistogram.signature(cols(0), refs, 8)
    val s1 = ColumnHistogram.signature(cols(1), refs, 8)
    val s2 = ColumnHistogram.signature(far, refs, 8)
    assert(Jsd.jsd(s0, s1) < Jsd.jsd(s0, s2),
      "same-distribution columns should be JSD-closer than different ones")
  }

  test("bin clamping keeps all mass in range") {
    val col = ColumnVectors(0, "c", Array(Array(1.0, 0.0), Array(-1.0, 0.0)))
    val refs = Array(Array(1.0, 0.0))
    val sig = ColumnHistogram.signature(col, refs, bins = 4)
    assert(math.abs(sig.sum - 1.0) < 1e-9)
  }

  test("referencePoints rejects r = 0 and signature rejects 0 bins") {
    val cols = TestData.clusteredColumns(new Random(4), 2, 5, 6)
    intercept[IllegalArgumentException](ColumnHistogram.referencePoints(cols, 0))
    val refs = ColumnHistogram.referencePoints(cols, 2)
    intercept[IllegalArgumentException](ColumnHistogram.signature(cols.head, refs, bins = 0))
  }
}
