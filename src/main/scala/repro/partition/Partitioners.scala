package repro.partition

import repro.core.ColumnVectors
import repro.embed.{KMeans, VectorOps}

/** Baseline partitioners compared against JSD clustering in the paper's
  * partitioning experiment (Section VI-E, Fig. 9): random partitioning and
  * "average k-means" (each column reduced to the mean of its vectors, then
  * Euclidean k-means over those means).
  */
object Partitioners {

  /** Seed of [[random]]'s hash. */
  private val Seed = 17L

  /** Deterministic pseudo-random assignment (hash of colId mod k). */
  def random(columns: IndexedSeq[ColumnVectors], k: Int): Array[Int] = {
    require(k >= 1, s"need k >= 1, got $k")
    columns.map { c =>
      val h = repro.embed.HashingEmbedder.splitmix64(c.colId.toLong ^ Seed)
      ((h % k + k) % k).toInt
    }.toArray
  }

  /** k-means over per-column average vectors. */
  def avgKMeans(columns: IndexedSeq[ColumnVectors], k: Int, iterations: Int = 5): Array[Int] = {
    require(k >= 1 && columns.nonEmpty, "need k >= 1 and a non-empty lake")
    val means = columns.map(c => VectorOps.mean(c.vectors)).toArray
    KMeans.lloyd(means, k, iterations, VectorOps.euclideanSq).assign
  }

  /** Group columns by a partition assignment. */
  def split(columns: IndexedSeq[ColumnVectors], assign: Array[Int]): Map[Int, IndexedSeq[ColumnVectors]] =
    columns.indices.groupBy(assign(_)).map { case (p, idxs) => p -> idxs.map(columns(_)) }
}
