package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.TestData
import repro.embed.VectorOps

class ProductQuantizationSpec extends AnyFunSuite {

  private def smallWorld(seed: Long) = {
    val rng = new Random(seed)
    val cols = TestData.clusteredColumns(rng, nCols = 8, colSize = 12, dim = 8)
    (rng, cols, ProductQuantization.build(cols, numSub = 4, k = 16))
  }

  test("codes have one entry per subspace, within codebook range") {
    val (_, _, pq) = smallWorld(1)
    pq.codes.foreach { c =>
      assert(c.code.length == 4)
      c.code.foreach(k => assert(k >= 0 && k < pq.codebooks(0).length))
    }
  }

  test("ADC distance approximates the true distance") {
    val (rng, cols, pq) = smallWorld(2)
    val flat = cols.flatMap(_.vectors)
    var errSum = 0.0; var n = 0
    (1 to 30).foreach { _ =>
      val q = TestData.unitVec(rng, 8)
      val tables = pq.adcTables(q)
      flat.zip(pq.codes).foreach { case (v, c) =>
        errSum += math.abs(pq.adcDistance(tables, c) - VectorOps.euclidean(q, v))
        n += 1
      }
    }
    val mae = errSum / n
    assert(mae < 0.25, s"mean ADC error $mae too large")
  }

  test("ADC distance of a vector to itself's code is small") {
    val (_, cols, pq) = smallWorld(3)
    val flat = cols.flatMap(_.vectors)
    flat.zip(pq.codes).take(20).foreach { case (v, c) =>
      val d = pq.adcDistance(pq.adcTables(v), c)
      assert(d < 0.6, s"self ADC distance $d")
    }
  }

  test("dim not divisible by numSub rejected") {
    val rng = new Random(4)
    val cols = TestData.clusteredColumns(rng, 2, 5, 7)
    intercept[IllegalArgumentException] { ProductQuantization.build(cols, 4, 8) }
  }

  test("tuneSlack reaches the target recall") {
    val (rng, cols, pq) = smallWorld(5)
    val probes = Seq.fill(10)(TestData.near(rng, cols.head.vectors.head, 0.2))
    val slack = ProductQuantization.tuneSlack(pq, cols, probes, tau = 0.4, targetRecall = 0.85)
    assert(slack >= 1.0 && slack <= 4.0)
  }

  test("PQ search is approximate but overlaps the exact result substantially") {
    val (_, cols, pq) = smallWorld(6)
    val (cols2, query) = TestData.searchInstance(60)
    // reuse the same world for exactness comparison
    val pqW = ProductQuantization.build(cols2, numSub = 4, k = 16)
    val exact = NaiveSearch.search(cols2, query, 0.4, 0.4).joinable
    val approx = ProductQuantization.search(pqW, query, 0.4, 0.4, slack = 1.2).joinable
    if (exact.nonEmpty) {
      val recall = exact.intersect(approx).size.toDouble / exact.size
      assert(recall >= 0.3, s"recall=$recall exact=$exact approx=$approx")
    }
    assert(pq != null && cols.nonEmpty)
  }

  test("larger slack never shrinks the result") {
    val (cols2, query) = TestData.searchInstance(61)
    val pqW = ProductQuantization.build(cols2, numSub = 4, k = 16)
    val tight = ProductQuantization.search(pqW, query, 0.4, 0.4, slack = 0.8).joinable
    val loose = ProductQuantization.search(pqW, query, 0.4, 0.4, slack = 1.5).joinable
    assert(tight.subsetOf(loose))
  }

  test("distance computations counted (ADC table builds)") {
    val (cols2, query) = TestData.searchInstance(62)
    val pqW = ProductQuantization.build(cols2, numSub = 4, k = 16)
    val r = ProductQuantization.search(pqW, query, 0.4, 0.4)
    assert(r.distanceComputations > 0)
  }

  test("k = 0 codebook entries and numSub = 0 rejected") {
    val cols = TestData.clusteredColumns(new Random(9), 2, 5, 8)
    intercept[IllegalArgumentException] { ProductQuantization.build(cols, numSub = 4, k = 0) }
    intercept[IllegalArgumentException] { ProductQuantization.build(cols, numSub = 0, k = 4) }
  }
}
