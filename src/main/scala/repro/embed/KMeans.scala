package repro.embed

/** Lloyd's k-means with deterministic spaced initialization — the one
  * clustering loop behind JSD partitioning (paper Section IV), the
  * average-vector k-means baseline (Section VI-E) and PQ codebook training
  * [16].
  *
  * The initial centers are `points(min(n−1, i·step))` with
  * `step = max(1, n / min(k, n))`. Each iteration assigns every point to
  * the center with the smallest `dist(point, center)` (the first center
  * wins a tie), then moves each center to `center(mean of its points)`; an
  * empty cluster keeps its old center.
  */
object KMeans {

  /** @param assign  cluster of each point after the last assignment step
    * @param centers the centers after the last update step
    */
  final case class Result(assign: Array[Int], centers: Array[Array[Double]])

  /** Cluster `points` into `min(k, n)` clusters with `iterations` rounds. */
  def lloyd(
      points: Array[Array[Double]],
      k: Int,
      iterations: Int,
      dist: (Array[Double], Array[Double]) => Double,
      center: Array[Double] => Array[Double] = identity,
  ): Result = {
    require(k >= 1, s"k-means needs k >= 1, got $k")
    require(points.nonEmpty, "k-means needs at least one point")
    val n = points.length
    val kk = math.min(k, n)
    val step = math.max(1, n / kk)
    var centers = Array.tabulate(kk)(i => points(math.min(n - 1, i * step)).clone())
    val assign = new Array[Int](n)
    var it = 0
    while (it < iterations) {
      val sums = Array.fill(kk)(new Array[Double](points(0).length))
      val cnts = new Array[Int](kk)
      var i = 0
      while (i < n) {
        var best = 0; var bestD = Double.MaxValue
        var c = 0
        while (c < kk) {
          val d = dist(points(i), centers(c))
          if (d < bestD) { bestD = d; best = c }
          c += 1
        }
        assign(i) = best
        VectorOps.addInPlace(sums(best), points(i))
        cnts(best) += 1
        i += 1
      }
      centers = Array.tabulate(kk) { c =>
        if (cnts(c) == 0) centers(c) else center(sums(c).map(_ / cnts(c)))
      }
      it += 1
    }
    Result(assign, centers)
  }
}
