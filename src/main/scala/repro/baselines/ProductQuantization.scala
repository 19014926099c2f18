package repro.baselines

import scala.collection.mutable
import repro.core.{ColumnVectors, SearchResult}
import repro.embed.{KMeans, VectorOps}

/** PQ — product quantization competitor (Jégou et al. [16], the nanopq
  * equivalent of paper Section VI-A).
  *
  * The space is split into `m` subspaces; each subspace gets a k-means
  * codebook; vectors are stored as code tuples. A range query computes an
  * ADC (asymmetric distance computation) table per subspace and treats a
  * vector as within range if its ADC distance ≤ τ·slack. Approximate: no
  * exact re-check, which is exactly why the paper reports very low
  * precision/recall for "our join with PQ-85" (Table IV).
  *
  * `slack` is tuned with [[ProductQuantization.tuneSlack]] to reach a
  * target range-query recall (75% / 85% in the paper's PQ-75 / PQ-85).
  */
final class ProductQuantization(
    val numSub: Int,
    val subDim: Int,
    /** codebooks(s)(c) = centroid c of subspace s */
    val codebooks: Array[Array[Array[Double]]],
    val codes: Array[ProductQuantization.Coded],
) {

  import ProductQuantization._

  /** ADC lookup tables for one query: squared distances to every centroid. */
  def adcTables(q: Array[Double]): Array[Array[Double]] =
    Array.tabulate(numSub) { s =>
      val qs = slice(q, s, subDim)
      codebooks(s).map(c => VectorOps.euclideanSq(qs, c))
    }

  def adcDistance(tables: Array[Array[Double]], coded: Coded): Double = {
    var sum = 0.0
    var s = 0
    while (s < numSub) { sum += tables(s)(coded.code(s)); s += 1 }
    math.sqrt(sum)
  }
}

object ProductQuantization {

  final case class Coded(colId: Int, code: Array[Int])

  private[baselines] def slice(v: Array[Double], s: Int, subDim: Int): Array[Double] =
    java.util.Arrays.copyOfRange(v, s * subDim, (s + 1) * subDim)

  /** Lloyd iterations per codebook. */
  private val TrainIterations = 10

  /** Train codebooks with [[KMeans]] per subspace and encode all repository
    * vectors.
    */
  def build(columns: Seq[ColumnVectors], numSub: Int, k: Int): ProductQuantization = {
    val all = columns.iterator.flatMap(c => c.vectors.iterator.map(v => (c.colId, v))).toArray
    require(all.nonEmpty, "empty repository")
    val dim = all.head._2.length
    require(numSub >= 1 && dim % numSub == 0, s"dim $dim not divisible by numSub $numSub")
    val subDim = dim / numSub

    val codebooks = Array.tabulate(numSub) { s =>
      val pts = all.map(e => slice(e._2, s, subDim))
      KMeans.lloyd(pts, k, TrainIterations, VectorOps.euclideanSq).centers
    }

    val codes = all.map { case (col, v) =>
      val code = Array.tabulate(numSub) { s =>
        val vs = slice(v, s, subDim)
        nearest(codebooks(s), vs)
      }
      Coded(col, code)
    }
    new ProductQuantization(numSub, subDim, codebooks, codes)
  }

  private def nearest(centroids: Array[Array[Double]], v: Array[Double]): Int = {
    var best = 0; var bestD = Double.MaxValue
    var i = 0
    while (i < centroids.length) {
      val d = VectorOps.euclideanSq(centroids(i), v)
      if (d < bestD) { bestD = d; best = i }
      i += 1
    }
    best
  }

  /** PQ joinable-column search — same workflow as CTREE/EPT, range queries
    * answered approximately by ADC distance ≤ τ·slack.
    */
  def search(
      pq: ProductQuantization,
      query: Array[Array[Double]],
      tau: Double,
      tFrac: Double,
      slack: Double = 1.0,
  ): SearchResult = {
    var dist = 0L
    RangeSearch.joinable(query, tFrac, () => dist) { (qv, skip) =>
      val tables = pq.adcTables(qv)
      dist += pq.numSub.toLong * pq.codebooks(0).length
      val hit = mutable.HashSet.empty[Int]
      pq.codes.foreach { e =>
        if (!skip(e.colId) && !hit.contains(e.colId)) {
          if (pq.adcDistance(tables, e) <= tau * slack) hit += e.colId
        }
      }
      hit
    }
  }

  /** Find the smallest slack whose range-query recall on a sample of
    * (query vector, τ) probes reaches `targetRecall`. Recall is measured
    * against exact brute-force range results.
    */
  def tuneSlack(
      pq: ProductQuantization,
      columns: Seq[ColumnVectors],
      probes: Seq[Array[Double]],
      tau: Double,
      targetRecall: Double,
  ): Double = {
    val flat = columns.iterator.flatMap(c => c.vectors.iterator.zipWithIndex
      .map { case (v, i) => (s"${c.colId}:$i", v) }).toArray
    val truths = probes.map { q =>
      flat.iterator.filter { case (_, v) => VectorOps.euclidean(q, v) <= tau }.map(_._1).toSet
    }

    def recallAt(slack: Double): Double = {
      var hitSum = 0.0; var n = 0
      probes.zip(truths).foreach { case (q, truth) =>
        if (truth.nonEmpty) {
          val tables = pq.adcTables(q)
          var hits = 0
          var keyIdx = 0
          // ADC over the same flattened order as `flat`
          pq.codes.foreach { e =>
            val key = flat(keyIdx)._1
            if (truth.contains(key) && pq.adcDistance(tables, e) <= tau * slack) hits += 1
            keyIdx += 1
          }
          hitSum += hits.toDouble / truth.size
          n += 1
        }
      }
      if (n == 0) 1.0 else hitSum / n
    }

    // Pick the slack whose range-query recall is closest to the target —
    // mirroring "we adjust PQ to make the recall of range query at least
    // 75%/85%" without silently overshooting to 100% (ADC at slack 1 may
    // already over-include; the paper's PQ-85 misses ~15% of matches).
    val candidates = BigDecimal(0.5).to(BigDecimal(4.0), BigDecimal(0.05)).map(_.toDouble)
    candidates.minBy(s => math.abs(recallAt(s) - targetRecall))
  }
}
