package repro.baselines

import scala.collection.mutable
import repro.core.{SearchResult, Verify}

/** The joinable-column search every range-query competitor runs (CTREE,
  * EPT, PQ; paper Section VI-A): one range query per query vector, each
  * column a range query hits counts once toward its joinability, and a
  * column that reaches T is joinable and skipped by later range queries —
  * the early termination the paper grants all competitors.
  */
private[baselines] object RangeSearch {

  /** @param distances the caller's distance count for this search, read once it ends
    * @param range     `(query vector, skip)` → the distinct columns with a
    *                  vector in range, leaving out every column `skip` names
    */
  def joinable(query: Array[Array[Double]], tFrac: Double, distances: () => Long)(
      range: (Array[Double], Int => Boolean) => Iterable[Int]): SearchResult = {
    val tAbs = Verify.absThreshold(tFrac, query.length)
    val counts = mutable.HashMap.empty[Int, Int]
    val joinable = mutable.HashSet.empty[Int]
    val t0 = System.nanoTime()
    query.foreach { qv =>
      range(qv, joinable.contains).foreach { col =>
        val c = counts.getOrElse(col, 0) + 1
        counts(col) = c
        if (c >= tAbs) joinable += col
      }
    }
    SearchResult(joinable.toSet, 0L, System.nanoTime() - t0, distances(), 0L, 0L)
  }
}
