package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import repro.baselines.NaiveSearch

class VerifySpec extends AnyFunSuite {

  test("absThreshold: smallest count whose fraction reaches T") {
    assert(Verify.absThreshold(0.5, 10) == 5)
    assert(Verify.absThreshold(0.51, 10) == 6)
    assert(Verify.absThreshold(0.2, 10) == 2)
    assert(Verify.absThreshold(0.6, 5) == 3)
  }

  test("absThreshold is at least 1") {
    assert(Verify.absThreshold(0.0, 10) == 1)
    assert(Verify.absThreshold(0.01, 5) == 1)
  }

  test("absThreshold handles exact boundaries without float drift") {
    // 0.6 * 5 = 3.0000000000000004 in IEEE — must still be 3
    assert(Verify.absThreshold(0.6, 5) == 3)
    assert(Verify.absThreshold(0.3, 10) == 3)
    assert(Verify.absThreshold(1.0, 7) == 7)
  }

  test("absThreshold: T=100% requires every query vector") {
    (1 to 20).foreach(n => assert(Verify.absThreshold(1.0, n) == n))
  }

  test("Lemma 7 abandons a column that can no longer reach T") {
    // |Q| = 3, T = 100%: once one query vector misses the column, it can
    // reach at most 2 of the 3 required matches
    val tau = 0.1
    val cell = ArraySeq(0)
    val query = Array(Array(1.0, 0.0), Array(0.0, 1.0), Array(0.6, 0.8))
    val far = Array(Array(-1.0, 0.0), Array(0.0, -1.0))
    // one pivot; every mapped pair passes Lemma 1 (|0.5 − 0.5| ≤ τ) and is
    // not matched by Lemma 2 (0.5 + 0.5 > τ), so only exact distances decide
    val queryMapped = Array.fill(query.length)(Array(0.5))
    val index = InvertedIndex.build(mutable.HashMap(
      cell -> mutable.ArrayBuffer.from(far.map(v => Posting(7, Array(0.5), v)))))
    val block = BlockResult(
      matching = mutable.ArrayBuffer.empty,
      candidates = mutable.ArrayBuffer.from(query.indices.map(q => (q, cell))))
    val (joinable, stats) = Verify.pexeso(block, index, queryMapped, query, tau,
      Verify.absThreshold(1.0, query.length))
    // the first query vector computes both distances and misses; the other
    // two are skipped (without Lemma 7 they would compute 2 more each)
    assert(stats.distanceComputations == 2)
    assert(joinable.isEmpty)
    val naive = NaiveSearch.search(Seq(ColumnVectors(7, "far", far)), query, tau, 1.0)
    assert(joinable == naive.joinable)
  }
}
