package repro.partition

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.TestData

class PartitionersSpec extends AnyFunSuite {

  test("random assignment is valid and deterministic") {
    val rng = new Random(1)
    val cols = TestData.clusteredColumns(rng, 20, 5, 6)
    val a = Partitioners.random(cols, 4)
    val b = Partitioners.random(cols, 4)
    assert(a.toSeq == b.toSeq)
    assert(a.forall(p => p >= 0 && p < 4))
  }

  test("avgKMeans assignment valid, deterministic, k=1 degenerate") {
    val rng = new Random(2)
    val cols = TestData.clusteredColumns(rng, 20, 5, 6)
    val a = Partitioners.avgKMeans(cols, 3)
    assert(a.length == 20 && a.forall(p => p >= 0 && p < 3))
    assert(Partitioners.avgKMeans(cols, 1).forall(_ == 0))
    assert(a.toSeq == Partitioners.avgKMeans(cols, 3).toSeq)
  }

  test("split groups columns by assignment and loses nothing") {
    val rng = new Random(3)
    val cols = TestData.clusteredColumns(rng, 15, 5, 6)
    val assign = Partitioners.random(cols, 4)
    val parts = Partitioners.split(cols, assign)
    assert(parts.values.map(_.size).sum == cols.size)
    parts.foreach { case (p, cs) =>
      cs.foreach(c => assert(assign(cols.indexOf(c)) == p))
    }
  }

  test("avgKMeans separates well-separated clusters of columns") {
    val rng = new Random(4)
    val c1 = TestData.unitVec(rng, 6)
    val c2 = c1.map(-_)
    val a = (0 until 5).map(i => repro.core.ColumnVectors(i, s"a$i",
      Array.fill(30)(TestData.near(rng, c1, 0.05))))
    val b = (0 until 5).map(i => repro.core.ColumnVectors(5 + i, s"b$i",
      Array.fill(30)(TestData.near(rng, c2, 0.05))))
    val assign = Partitioners.avgKMeans(a ++ b, 2, iterations = 8)
    assert(assign.take(5).toSet.size == 1 && assign.drop(5).toSet.size == 1)
    assert(assign.head != assign.last)
  }

  test("random rejects k = 0 instead of dividing by zero") {
    val cols = TestData.clusteredColumns(new Random(5), 4, 3, 6)
    intercept[IllegalArgumentException](Partitioners.random(cols, 0))
  }

  test("avgKMeans rejects an empty lake and k = 0") {
    intercept[IllegalArgumentException](Partitioners.avgKMeans(IndexedSeq.empty, 2))
    val cols = TestData.clusteredColumns(new Random(6), 4, 3, 6)
    intercept[IllegalArgumentException](Partitioners.avgKMeans(cols, 0))
  }
}
