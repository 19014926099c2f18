package repro.core

import scala.collection.mutable
import repro.embed.VectorOps

/** PCA-based pivot selection (paper Section III-D, following Mao et al. [20]).
  *
  * Good pivots are outliers that scatter the mapped vectors. The PCA-based
  * method runs in O(|S_V|): compute the top principal components of (a
  * sample of) the vector collection with power iteration, then pick, for
  * each component, the vector with the extreme projection along it —
  * those are outliers in the directions of maximum variance.
  *
  * No external linear-algebra dependency: the covariance–vector product is
  * computed implicitly as X^T (X v) over the centered sample.
  */
object PivotSelection {

  /** Power-iteration steps per principal component. */
  private val PowerIterations = 20
  /** Seed of the deterministic start vectors. */
  private val StartSeed = 7L

  /** Select `k` distinct pivots from `vectors` (or a sample thereof).
    *
    * @param vectors candidate pool (pass a uniform sample for big lakes)
    * @param k       number of pivots (should stay below the original dim)
    */
  def pcaPivots(vectors: IndexedSeq[Array[Double]], k: Int): PivotSet = {
    require(vectors.nonEmpty, "empty vector pool")
    require(k >= 1, "need k >= 1")
    val dim = vectors.head.length
    val mu  = VectorOps.mean(vectors)

    // Centered-projection helper: (x - mu) · v
    def proj(x: Array[Double], v: Array[Double]): Double = {
      var s = 0.0; var i = 0
      while (i < dim) { s += (x(i) - mu(i)) * v(i); i += 1 }
      s
    }

    val comps = mutable.ArrayBuffer.empty[Array[Double]]

    var c = 0
    var rngState = StartSeed
    while (c < math.min(k, dim)) {
      // deterministic pseudo-random start vector
      var v = Array.fill(dim) {
        rngState = repro.embed.HashingEmbedder.splitmix64(rngState)
        (rngState.toDouble / Long.MaxValue)
      }
      v = VectorOps.normalize(v)
      var it = 0
      while (it < PowerIterations) {
        // w = Cov * v  (implicitly, up to 1/n scale):  sum_x ((x-mu)·v)(x-mu)
        val w = new Array[Double](dim)
        vectors.foreach { x =>
          val p = proj(x, v)
          var i = 0
          while (i < dim) { w(i) += p * (x(i) - mu(i)); i += 1 }
        }
        // deflate against previously found components
        comps.foreach { u =>
          val d = VectorOps.dot(w, u)
          var i = 0
          while (i < dim) { w(i) -= d * u(i); i += 1 }
        }
        val n = VectorOps.norm(w)
        if (n > 1e-12) v = w.map(_ / n)
        it += 1
      }
      comps += v
      c += 1
    }

    // One pivot per component: the vector with the maximum |projection|
    // (an outlier along that direction). De-duplicate; top up farthest-first
    // if k > dim or duplicates collapse the set.
    val chosen = mutable.LinkedHashSet.empty[Int]
    comps.foreach { u =>
      var best = -1; var bestAbs = -1.0
      var i = 0
      while (i < vectors.length) {
        if (!chosen.contains(i)) {
          val p = math.abs(proj(vectors(i), u))
          if (p > bestAbs) { bestAbs = p; best = i }
        }
        i += 1
      }
      if (best >= 0) chosen += best
    }
    PivotSet(farthestFirst(vectors, chosen.toSeq, k).map(vectors(_).clone()))
  }

  /** Farthest-first selection: extends `start` (distinct indices into
    * `vectors`) to `k` indices, or to all of `vectors` if fewer, each time
    * adding the vector whose minimum distance to those already chosen is
    * largest (the lowest index wins a tie). Returns indices in selection order.
    */
  def farthestFirst(vectors: IndexedSeq[Array[Double]], start: Seq[Int], k: Int): Array[Int] = {
    val chosen = mutable.LinkedHashSet.from(start)
    while (chosen.size < k && chosen.size < vectors.length) {
      var best = -1; var bestD = -1.0
      var i = 0
      while (i < vectors.length) {
        if (!chosen.contains(i)) {
          var minD = Double.MaxValue
          chosen.foreach(j => minD = math.min(minD, VectorOps.euclidean(vectors(i), vectors(j))))
          if (minD > bestD) { bestD = minD; best = i }
        }
        i += 1
      }
      if (best < 0) return chosen.toArray
      chosen += best
    }
    chosen.toArray
  }

  /** Uniform deterministic sample of up to `maxSample` vectors. */
  def sample(vectors: IndexedSeq[Array[Double]], maxSample: Int): IndexedSeq[Array[Double]] =
    if (vectors.length <= maxSample) vectors
    else {
      val step = vectors.length.toDouble / maxSample
      (0 until maxSample).map(i => vectors((i * step).toInt))
    }
}
