package repro.embed

import org.scalatest.funsuite.AnyFunSuite

class KMeansSpec extends AnyFunSuite {

  private def pts(xs: Double*): Array[Array[Double]] = xs.map(Array(_)).toArray
  private def flat(r: KMeans.Result): Seq[Double] = r.centers.toSeq.flatMap(_.toSeq)

  test("initial centers are evenly spaced points; zero iterations keep them") {
    val r = KMeans.lloyd(pts(0 until 10 map (_.toDouble): _*), 3, 0, VectorOps.euclideanSq)
    assert(flat(r) == Seq(0.0, 3.0, 6.0))
    assert(r.assign.forall(_ == 0))
  }

  test("a tie goes to the first center; centers move to their cluster means") {
    val r = KMeans.lloyd(pts(0, 2, 1), 2, 1, VectorOps.euclideanSq)
    assert(r.assign.toSeq == Seq(0, 1, 0))
    assert(flat(r) == Seq(0.5, 2.0))
  }

  test("an empty cluster keeps its center; the hook maps every updated mean") {
    // both initial centers are 0, so every point ties and goes to center 0
    val r = KMeans.lloyd(pts(0, 0, 6), 2, 1, VectorOps.euclideanSq, _.map(_ + 100))
    assert(r.assign.toSeq == Seq(0, 0, 0))
    assert(flat(r) == Seq(102.0, 0.0))
  }

  test("k is capped at the number of points") {
    val r = KMeans.lloyd(pts(1, 5), 5, 3, VectorOps.euclideanSq)
    assert(r.centers.length == 2 && r.assign.toSeq == Seq(0, 1))
  }

  test("k < 1 and an empty point set are rejected") {
    intercept[IllegalArgumentException](KMeans.lloyd(pts(1, 2), 0, 3, VectorOps.euclideanSq))
    intercept[IllegalArgumentException](KMeans.lloyd(pts(), 2, 3, VectorOps.euclideanSq))
  }
}
