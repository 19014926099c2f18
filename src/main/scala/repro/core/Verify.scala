package repro.core

import scala.collection.mutable
import repro.embed.VectorOps

/** Verification (paper Algorithm 2).
  *
  * Consumes the blocking output and the inverted index, maintains the
  * match map (distinct matched query vectors per column — a set, since
  * joinability counts distinct `q ∈ Q_M`) and prunes with:
  *
  *   - per-vector pivot filtering / matching (Lemmas 1–2) before any exact
  *     distance computation;
  *   - early termination: a column whose match count reaches `T` is
  *     joinable, the rest of its candidates are skipped;
  *   - Lemma 7: a column that can no longer reach `T` even if all its
  *     remaining candidate query vectors matched is abandoned.
  *
  * The candidate pairs are re-grouped by column (DaaT: each column is a
  * "document") so both terminations apply as early as possible.
  */
object Verify {

  /** Absolute joinability threshold: smallest match count c with c/|Q| ≥ T. */
  def absThreshold(tFrac: Double, qSize: Int): Int =
    math.max(1, math.ceil(tFrac * qSize - 1e-9).toInt)

  final class Stats {
    var distanceComputations: Long = 0L
  }

  /** The match map: distinct matched query vectors per column. A column
    * becomes joinable once its count reaches `tAbs`. It starts from the
    * matching pairs: every vector in such a cell matches q, so q is matched
    * for every column present in the cell.
    */
  private final class Matches(block: BlockResult, index: InvertedIndex, tAbs: Int) {
    private val matched = mutable.HashMap.empty[Int, mutable.BitSet]
    val joinable = mutable.HashSet.empty[Int]

    def contains(col: Int, q: Int): Boolean = matched.get(col).exists(_.contains(q))

    def add(col: Int, q: Int): Unit = {
      val set = matched.getOrElseUpdate(col, mutable.BitSet.empty)
      set += q
      if (set.size >= tAbs) joinable += col
    }

    block.matching.foreach { case (q, cell) =>
      index.columnsIn(cell).foreach(col => add(col, q))
    }
  }

  /** PEXESO verification (inverted-index + DaaT + Lemmas 1, 2, 7). */
  def pexeso(
      block: BlockResult,
      index: InvertedIndex,
      queryMapped: Array[Array[Double]],
      queryOriginal: Array[Array[Double]],
      tau: Double,
      tAbs: Int,
  ): (Set[Int], Stats) = {
    val stats   = new Stats
    val matches = new Matches(block, index, tAbs)

    // DaaT verification as in the paper (Fig. 4): candidate pairs are
    // walked per query vector; each cell's postings are sorted by column,
    // so one pass over a cell processes its columns ("documents")
    // consecutively. A mismatch map feeds Lemma 7: once |Q| − mismatches
    // cannot reach T, the column's remaining postings are skipped.
    val mismatch = mutable.HashMap.empty[Int, Int]
    val numQ = queryMapped.length
    val sorted = block.candidates.sortInPlaceBy(_._1)

    var i = 0
    while (i < sorted.length) {
      val q = sorted(i)._1
      var j = i
      while (j < sorted.length && sorted(j)._1 == q) j += 1
      val qm = queryMapped(q)
      val qo = queryOriginal(q)
      // columns this q touched within its candidate cells
      val seen = mutable.HashSet.empty[Int]
      var ci = i
      while (ci < j) {
        val posts = index.postingsIn(sorted(ci)._2)
        var pi = 0
        while (pi < posts.length) {
          val col = posts(pi).colId
          // end of this column's segment inside the cell
          var segEnd = pi
          while (segEnd < posts.length && posts(segEnd).colId == col) segEnd += 1
          val skip = matches.joinable.contains(col) ||
            matches.contains(col, q) ||
            numQ - mismatch.getOrElse(col, 0) < tAbs // Lemma 7
          if (!skip) {
            seen += col
            var found = false
            var k = pi
            while (k < segEnd && !found) {
              val p = posts(k)
              if (!PivotSpace.filteredByPivots(qm, p.mapped, tau)) {
                if (PivotSpace.matchedByPivots(qm, p.mapped, tau)) found = true
                else {
                  stats.distanceComputations += 1
                  if (VectorOps.euclidean(qo, p.original) <= tau) found = true
                }
              }
              k += 1
            }
            if (found) matches.add(col, q)
          }
          pi = segEnd
        }
        ci += 1
      }
      // q matched nothing of a seen column in any of its cells => mismatch
      seen.foreach { col =>
        if (!matches.contains(col, q)) mismatch(col) = mismatch.getOrElse(col, 0) + 1
      }
      i = j
    }

    (matches.joinable.toSet, stats)
  }

  /** PEXESO-H verification (paper Section VI-A): same blocking, but each
    * candidate pair is verified naively — exact distance against every
    * vector in the cell, no per-vector pivot tests, no Lemma 7; only the
    * column-level "already joinable" skip that all competitors get.
    */
  def naiveCells(
      block: BlockResult,
      index: InvertedIndex,
      queryOriginal: Array[Array[Double]],
      tau: Double,
      tAbs: Int,
  ): (Set[Int], Stats) = {
    val stats   = new Stats
    val matches = new Matches(block, index, tAbs)

    block.candidates.foreach { case (q, cell) =>
      val qo = queryOriginal(q)
      val posts = index.postingsIn(cell)
      var pi = 0
      while (pi < posts.length) {
        val p = posts(pi)
        if (!matches.joinable.contains(p.colId) && !matches.contains(p.colId, q)) {
          stats.distanceComputations += 1
          if (VectorOps.euclidean(qo, p.original) <= tau) matches.add(p.colId, q)
        }
        pi += 1
      }
    }

    (matches.joinable.toSet, stats)
  }
}
