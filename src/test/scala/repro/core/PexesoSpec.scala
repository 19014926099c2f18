package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.TestData
import repro.baselines.NaiveSearch

/** End-to-end exactness of PEXESO (Algorithm 3): the joinable set must
  * equal the brute-force reference on randomized instances across every
  * parameter axis — this is the paper's central correctness claim ("our
  * search algorithm finds exact answers").
  */
class PexesoSpec extends AnyFunSuite {

  private def check(seed: Long, numPivots: Int, levels: Int,
                    tau: Double, tFrac: Double, mode: VerifyMode): Unit = {
    val (cols, query) = TestData.searchInstance(seed)
    val index = PexesoIndex.build(cols, numPivots, levels)
    val got = index.search(query, tau, tFrac, mode).joinable
    val want = NaiveSearch.search(cols, query, tau, tFrac).joinable
    assert(got == want,
      s"seed=$seed |P|=$numPivots m=$levels tau=$tau T=$tFrac mode=$mode")
  }

  test("PEXESO equals brute force across random instances") {
    for (seed <- (1L to 10L) ++ (15L to 18L))
      check(seed, numPivots = 3, levels = 3, tau = 0.4, tFrac = 0.5, VerifyMode.Pexeso)
  }

  test("PEXESO-H equals brute force across random instances") {
    for (seed <- 1L to 10L)
      check(seed, numPivots = 3, levels = 3, tau = 0.4, tFrac = 0.5, VerifyMode.PexesoH)
  }

  test("exactness across tau sweep") {
    for (tau <- Seq(0.05, 0.2, 0.4, 0.8, 1.2))
      check(seed = 11, numPivots = 3, levels = 3, tau = tau, tFrac = 0.5, VerifyMode.Pexeso)
  }

  test("exactness across T sweep") {
    for (t <- Seq(0.1, 0.2, 0.4, 0.6, 0.8, 1.0))
      check(seed = 12, numPivots = 3, levels = 3, tau = 0.4, tFrac = t, VerifyMode.Pexeso)
  }

  test("exactness across pivot counts") {
    for (p <- 1 to 5)
      check(seed = 13, numPivots = p, levels = 3, tau = 0.4, tFrac = 0.5, VerifyMode.Pexeso)
  }

  test("exactness across grid levels") {
    for (m <- 1 to 5)
      check(seed = 14, numPivots = 3, levels = m, tau = 0.4, tFrac = 0.5, VerifyMode.Pexeso)
  }

  test("vectors of norm > 1 are rejected instead of losing joinable columns") {
    // Gaussian centres ×3 (norm ≈ 8.5) put pivot-mapped coordinates past the
    // grid extent, where clamped cells let blocking filter away true matches.
    for (seed <- 1L to 30L) {
      val rng = new Random(seed)
      val centers = IndexedSeq.fill(4)(Array.fill(8)(rng.nextGaussian() * 3))
      def near(c: Array[Double]) = c.map(_ + rng.nextGaussian() * 0.12)
      val cols = (0 until 12).map(c =>
        ColumnVectors(c, s"col$c", Array.fill(20)(near(centers(rng.nextInt(4))))))
      val query = Array.fill(10)(near(centers(rng.nextInt(4))))
      intercept[IllegalArgumentException] {
        PexesoIndex.build(cols, 3, 3).search(query, 0.4, 0.5)
      }
    }
    val (cols, query) = TestData.searchInstance(26)
    val index = PexesoIndex.build(cols, 3, 3)
    val e = intercept[IllegalArgumentException](index.search(query.map(_.map(_ * 4)), 0.4, 0.5))
    assert(e.getMessage.contains("vector norm must be ≤ 1"))
    intercept[IllegalArgumentException](index.search(Array(Array.fill(8)(Double.NaN)), 0.4, 0.5))
  }

  test("PEXESO computes fewer distances than brute force") {
    val (cols, query) = TestData.searchInstance(20, nCols = 20, colSize = 30)
    val index = PexesoIndex.build(cols, 3, 3)
    val r = index.search(query, 0.3, 0.5)
    val naive = NaiveSearch.search(cols, query, 0.3, 0.5, earlyTermination = false)
    assert(r.distanceComputations < naive.distanceComputations,
      s"pexeso=${r.distanceComputations} naive=${naive.distanceComputations}")
  }

  test("PEXESO computes fewer distances than PEXESO-H") {
    val (cols, query) = TestData.searchInstance(21, nCols = 20, colSize = 30)
    val index = PexesoIndex.build(cols, 3, 3)
    val a = index.search(query, 0.3, 0.5, VerifyMode.Pexeso)
    val b = index.search(query, 0.3, 0.5, VerifyMode.PexesoH)
    assert(a.distanceComputations <= b.distanceComputations)
  }

  test("empty result when tau is tiny and T is high") {
    val (cols, query) = TestData.searchInstance(22)
    val index = PexesoIndex.build(cols, 3, 3)
    assert(index.search(query, 1e-9, 1.0).joinable ==
      NaiveSearch.search(cols, query, 1e-9, 1.0).joinable)
  }

  test("everything joins when tau is the max distance and T small") {
    val (cols, query) = TestData.searchInstance(23)
    val index = PexesoIndex.build(cols, 3, 3)
    val got = index.search(query, 2.0, 0.1).joinable
    assert(got == cols.map(_.colId).toSet)
  }

  test("searchResult stats populated") {
    val (cols, query) = TestData.searchInstance(24)
    val index = PexesoIndex.build(cols, 3, 3)
    val r = index.search(query, 0.4, 0.5)
    assert(r.blockNanos > 0 && r.verifyNanos >= 0)
    assert(r.candidatePairs >= 0 && r.matchingPairs >= 0)
    assert(index.buildNanos > 0)
    assert(index.numColumns == cols.size)
  }

  test("index is serializable (out-of-core prerequisite)") {
    val (cols, query) = TestData.searchInstance(25)
    val index = PexesoIndex.build(cols, 2, 2)
    val bos = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(bos)
    oos.writeObject(index); oos.close()
    val ois = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bos.toByteArray))
    val back = ois.readObject().asInstanceOf[PexesoIndex]
    assert(back.search(query, 0.4, 0.5).joinable == index.search(query, 0.4, 0.5).joinable)
  }

  test("concurrent searches on one shared index give the sequential results") {
    val rng = new Random(26)
    val cols = TestData.clusteredColumns(rng, nCols = 40, colSize = 20, dim = 8)
    val index = PexesoIndex.build(cols, 3, 4)
    val queries = IndexedSeq.tabulate(12) { i =>
      (cols(i).vectors.take(5) ++ cols(i + 20).vectors.take(5)).map(TestData.near(rng, _, 0.05))
    }
    val cases = for {
      q <- queries.indices; tau <- Seq(0.2, 0.4); t <- Seq(0.3, 0.6)
      mode <- Seq(VerifyMode.Pexeso, VerifyMode.PexesoH)
    } yield (q, tau, t, mode)
    def run(c: (Int, Double, Double, VerifyMode)) = {
      val r = index.search(queries(c._1), c._2, c._3, c._4)
      (r.joinable, r.distanceComputations, r.candidatePairs, r.matchingPairs)
    }
    val sequential = cases.map(c => c -> run(c)).toMap
    assert(sequential.values.exists(_._1.nonEmpty))

    val threads = 8
    val pool = java.util.concurrent.Executors.newFixedThreadPool(threads)
    val start = new java.util.concurrent.CountDownLatch(1)
    try {
      val futures = (0 until threads).map { w =>
        pool.submit[Seq[(Int, Double, Double, VerifyMode)]] { () =>
          start.await()
          // every thread runs every case three times, each in its own order
          val order = new Random(w).shuffle(cases ++ cases ++ cases)
          order.filter(c => run(c) != sequential(c))
        }
      }
      start.countDown()
      futures.foreach(f => assert(f.get().isEmpty))
    } finally pool.shutdown()
  }
}
