package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{CoverTree, PivotTable, ProductQuantization}
import repro.embed.HashingEmbedder
import repro.partition.{JsdClustering, Partitioners}

/** Exact outputs of the clustering and competitor code on fixed inputs:
  * JSD and average-vector k-means assignments, PQ codebooks and codes, and
  * the joinable sets and distance counts of CTREE, EPT and PQ. Refactoring
  * any of them must leave every value bit-identical.
  */
class GoldenOutputSpec extends AnyFunSuite {

  /** Order-sensitive 64-bit fingerprint of exact bit patterns. */
  private def fingerprint(xs: Iterator[Long]): Long =
    xs.foldLeft(0L)((h, x) => HashingEmbedder.splitmix64(h ^ x))

  private def doubleBits(xs: Iterator[Double]): Iterator[Long] =
    xs.map(java.lang.Double.doubleToLongBits)

  private val (lake, query) =
    TestData.searchInstance(seed = 41, nCols = 24, colSize = 12, qSize = 12, dim = 8, nClusters = 5)

  test("JSD clustering assignments are unchanged") {
    val got = Seq(JsdClustering.cluster(lake, 4), JsdClustering.cluster(lake, 3, iterations = 8),
      JsdClustering.cluster(lake.take(3), 5)).map(_.mkString(","))
    assert(got == Seq(
      "0,0,2,0,0,2,1,0,0,2,2,2,2,2,3,2,1,2,3,0,0,2,2,3",
      "0,0,1,0,0,0,2,0,1,0,0,0,0,0,0,0,2,0,0,0,1,0,1,0",
      "0,1,2"))
  }

  test("average-vector k-means assignments are unchanged") {
    val got = Seq(Partitioners.avgKMeans(lake, 4), Partitioners.avgKMeans(lake, 3, iterations = 8),
      Partitioners.avgKMeans(lake.take(3), 5)).map(_.mkString(","))
    assert(got == Seq(
      "0,0,2,0,0,0,1,0,3,0,1,2,1,1,0,2,1,1,3,0,3,2,2,3",
      "0,0,2,0,0,0,2,0,1,0,0,2,2,2,0,2,2,2,1,0,1,2,2,1",
      "0,1,2"))
  }

  test("PQ codebooks and codes are unchanged") {
    val pq = ProductQuantization.build(lake, numSub = 4, k = 8)
    val got = Seq(pq.codebooks.map(_.length).mkString(","),
      fingerprint(doubleBits(pq.codebooks.iterator.flatten.flatten)),
      fingerprint(pq.codes.iterator.flatMap(c => c.colId.toLong +: c.code.map(_.toLong))))
    assert(got == Seq("8,8,8,8", 1033074095900646303L, -1951646612974509345L))
  }

  test("CTREE, EPT and PQ joinable sets and distance counts are unchanged") {
    val ctree = CoverTree.build(lake)
    val ept = PivotTable.build(lake, numPivots = 3)
    val pq = ProductQuantization.build(lake, numSub = 4, k = 8)
    val got = for {
      tau <- Seq(0.25, 0.35)
      t <- Seq(0.25, 0.5)
      (name, r) <- Seq(
        "CTREE" -> CoverTree.search(ctree, query, tau, t),
        "EPT" -> PivotTable.search(ept, query, tau, t),
        "PQ" -> ProductQuantization.search(pq, query, tau, t, slack = 0.9),
      )
    } yield s"$name tau=$tau T=$t ${r.joinable.toSeq.sorted.mkString(",")} d=${r.distanceComputations}"
    assert(got == Seq(
      "CTREE tau=0.25 T=0.25 0,2,8,16 d=1247",
      "EPT tau=0.25 T=0.25 0,2,8,16 d=606",
      "PQ tau=0.25 T=0.25  d=384",
      "CTREE tau=0.25 T=0.5  d=1247",
      "EPT tau=0.25 T=0.5  d=613",
      "PQ tau=0.25 T=0.5  d=384",
      "CTREE tau=0.35 T=0.25 0,1,2,3,4,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23 d=1423",
      "EPT tau=0.35 T=0.25 0,1,2,3,4,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23 d=370",
      "PQ tau=0.35 T=0.25 0,1,2,3,4,5,6,7,8,10,11,12,13,14,15,16,17,18,19,20,21,22,23 d=384",
      "CTREE tau=0.35 T=0.5 0,1,2,6,7,8,10,11,14,15,16,17,19 d=1423",
      "EPT tau=0.35 T=0.5 0,1,2,6,7,8,10,11,14,15,16,17,19 d=535",
      "PQ tau=0.35 T=0.5 2,8,11,19,22,23 d=384"))
  }
}
