package repro.baselines

import scala.collection.mutable
import repro.core.{ColumnVectors, SearchResult}
import repro.embed.VectorOps

/** EPT — pivot table competitor of paper Section VI-A (Ruiz et al. [27],
  * suggested by [5] for its competitiveness).
  *
  * A LAESA-style table: the distance from every repository vector to a set
  * of pivots is precomputed; a range query first computes the query's
  * pivot distances, then scans the table pruning any vector whose pivot
  * lower bound `max_i |d(x,p_i) − d(q,p_i)|` exceeds τ, and verifies the
  * survivors with exact distances. Pivots are chosen farthest-first
  * ("extreme" pivots — spread-out outliers).
  */
final class PivotTable(
    val pivots: Array[Array[Double]],
    /** vectors flattened in column order, with their pivot distances */
    val entries: Array[PivotTable.Entry],
) extends Serializable

object PivotTable {

  final case class Entry(colId: Int, vector: Array[Double], pivotDists: Array[Double])

  /** Index of the first pivot in the flattened repository (mod its size). */
  private val FirstPivot = 11L

  def build(columns: Seq[ColumnVectors], numPivots: Int): PivotTable = {
    require(numPivots >= 1, s"need numPivots >= 1, got $numPivots")
    val all = columns.iterator.flatMap(c => c.vectors.iterator.map(v => (c.colId, v))).toArray
    require(all.nonEmpty, "empty repository")

    // farthest-first pivot selection from a deterministic start
    val pivots = mutable.ArrayBuffer[Array[Double]](all((FirstPivot % all.length).toInt)._2)
    while (pivots.length < numPivots && pivots.length < all.length) {
      var best: Array[Double] = null
      var bestD = -1.0
      all.foreach { case (_, v) =>
        var minD = Double.MaxValue
        pivots.foreach(p => minD = math.min(minD, VectorOps.euclidean(v, p)))
        if (minD > bestD) { bestD = minD; best = v }
      }
      pivots += best
    }
    val ps = pivots.toArray
    val entries = all.map { case (col, v) =>
      Entry(col, v, ps.map(p => VectorOps.euclidean(p, v)))
    }
    new PivotTable(ps, entries)
  }

  /** EPT joinable-column search: [[RangeSearch]] whose range query scans
    * the table, pruning by the pivot lower bound and verifying the rest
    * with exact distances.
    */
  def search(
      table: PivotTable,
      query: Array[Array[Double]],
      tau: Double,
      tFrac: Double,
  ): SearchResult = {
    var dist = 0L
    RangeSearch.joinable(query, tFrac, () => dist) { (qv, skip) =>
      val qd = table.pivots.map(p => VectorOps.euclidean(p, qv))
      dist += table.pivots.length
      val hit = mutable.HashSet.empty[Int]
      var i = 0
      while (i < table.entries.length) {
        val e = table.entries(i)
        if (!skip(e.colId) && !hit.contains(e.colId)) {
          // pivot lower bound
          var lb = 0.0
          var j = 0
          while (j < qd.length) {
            val v = math.abs(qd(j) - e.pivotDists(j))
            if (v > lb) lb = v
            j += 1
          }
          if (lb <= tau) {
            dist += 1
            if (VectorOps.euclidean(qv, e.vector) <= tau) hit += e.colId
          }
        }
        i += 1
      }
      hit
    }
  }
}
