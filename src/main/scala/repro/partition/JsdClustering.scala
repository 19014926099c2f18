package repro.partition

import repro.core.ColumnVectors
import repro.embed.KMeans

/** k-means-style clustering of columns by distribution similarity
  * (paper Section IV, steps 1–5):
  *
  *  1. summarize every column as a probability histogram;
  *  2. pick k columns as initial centers (deterministically spaced here
  *     instead of random, for reproducibility);
  *  3. assign each column to the center with minimum JSD;
  *  4. update each center to the mean histogram of its cluster;
  *  5. repeat for `t` iterations.
  *
  * Steps 2–5 are [[repro.embed.KMeans]] with JSD as the distance and the
  * mean renormalized to sum 1. Complexity O(|S| · k · t), as analyzed in
  * the paper.
  */
object JsdClustering {

  /** Reference vectors the column histograms are taken against. */
  private val Refs = 4
  /** Histogram buckets per reference vector. */
  private val Bins = 16

  /** @return cluster assignment: column index (position in `columns`) → [0, k) */
  def cluster(columns: IndexedSeq[ColumnVectors], k: Int, iterations: Int = 5): Array[Int] = {
    require(k >= 1 && columns.nonEmpty, "need k >= 1 and a non-empty lake")
    val refPoints = ColumnHistogram.referencePoints(columns, Refs)
    val sigs = columns.map(c => ColumnHistogram.signature(c, refPoints, Bins)).toArray
    KMeans.lloyd(sigs, k, iterations, Jsd.jsd, { m => val tot = m.sum; m.map(_ / tot) }).assign
  }
}
