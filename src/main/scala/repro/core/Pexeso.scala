package repro.core

import scala.collection.mutable
import repro.core.HierarchicalGrid.CellKey

/** Verification strategy selector: `Pexeso` = inverted index + DaaT +
  * Lemmas 1/2/7 (the paper's method); `PexesoH` = naive per-cell
  * verification (the ablation "PEXESO-H" of Section VI-A).
  */
sealed trait VerifyMode
object VerifyMode {
  case object Pexeso  extends VerifyMode
  case object PexesoH extends VerifyMode
}

/** A built PEXESO index over one repository (or one partition of it):
  * selected pivots, the hierarchical grid `HG_SV` over mapped repository
  * vectors, and the leaf-cell inverted index (paper Sections III-B/C).
  *
  * Serializable so the out-of-core path (Section IV) can spill one index
  * per partition to disk and load each back in its own search task.
  * `search` only reads the index, so concurrent searches may share one.
  */
final class PexesoIndex(
    val pivots: PivotSet,
    val levels: Int,
    val grid: HierarchicalGrid,
    val inverted: InvertedIndex,
    val columnSizes: Map[Int, Int],
    val buildNanos: Long,
) extends Serializable {

  def numPivots: Int = pivots.numPivots
  def numColumns: Int = columnSizes.size

  /** Joinable column search (paper Algorithm 3).
    *
    * @param query vectors of the query column Q, each of norm ≤ 1
    * @param tau   distance threshold (absolute, e.g. 0.06 * 2 for "6%")
    * @param tFrac joinability threshold T as a fraction of |Q|
    */
  def search(
      query: Array[Array[Double]],
      tau: Double,
      tFrac: Double,
      mode: VerifyMode = VerifyMode.Pexeso,
  ): SearchResult = {
    val tAbs = Verify.absThreshold(tFrac, query.length)

    val t0 = System.nanoTime()
    val queryMapped = pivots.mapAll(query)
    queryMapped.foreach(PexesoIndex.requireInGrid(_, grid.extent))
    val hgQ = new HierarchicalGrid(numPivots, levels, grid.extent)
    var q = 0
    while (q < query.length) { hgQ.insert(queryMapped(q), q); q += 1 }
    val block = Block.run(hgQ, grid, queryMapped, tau)
    val t1 = System.nanoTime()

    val (joinable, stats) = mode match {
      case VerifyMode.Pexeso =>
        Verify.pexeso(block, inverted, queryMapped, query, tau, tAbs)
      case VerifyMode.PexesoH =>
        Verify.naiveCells(block, inverted, query, tau, tAbs)
    }
    val t2 = System.nanoTime()

    SearchResult(
      joinable = joinable,
      blockNanos = t1 - t0,
      verifyNanos = t2 - t1,
      distanceComputations = stats.distanceComputations,
      candidatePairs = block.candidates.length.toLong,
      matchingPairs = block.matching.length.toLong,
    )
  }
}

object PexesoIndex {

  /** Max vectors sampled for pivot selection. */
  private val PivotSample = 2000

  /** The grid's Lemma 3–6 geometry holds only inside `[0, extent]^|P|`:
    * a coordinate past it would be clamped into the border cell and its
    * matches could be filtered away. Distances between vectors of norm
    * ≤ 1 are at most 2, inside `HierarchicalGrid.DefaultExtent`. A NaN or
    * infinite coordinate fails the check too.
    */
  private def requireInGrid(mapped: Array[Double], extent: Double): Unit = {
    var i = 0
    while (i < mapped.length) {
      val x = mapped(i)
      require(x <= extent,
        s"vector norm must be ≤ 1: pivot-mapped coordinate $x is outside the grid extent $extent")
      i += 1
    }
  }

  /** Build a PEXESO index for a repository of columns.
    *
    * Pipeline (paper Section III-E): PCA-based pivot selection on a sample
    * (O(|S_V|)), pivot mapping of every vector (O(|P|·|S_V|)), hierarchical
    * grid + inverted index construction (O(m·|S_V| + D)).
    *
    * @param columns   the repository; every vector of norm ≤ 1
    * @param numPivots |P|
    * @param levels    m
    */
  def build(
      columns: Seq[ColumnVectors],
      numPivots: Int,
      levels: Int,
  ): PexesoIndex = {
    require(columns.nonEmpty, "empty repository")
    val t0 = System.nanoTime()

    val all: IndexedSeq[Array[Double]] =
      columns.iterator.flatMap(_.vectors).toIndexedSeq
    val pivots = PivotSelection.pcaPivots(PivotSelection.sample(all, PivotSample), numPivots)

    val grid = new HierarchicalGrid(numPivots, levels)
    val entries = mutable.HashMap.empty[CellKey, mutable.ArrayBuffer[Posting]]
    columns.foreach { col =>
      col.vectors.foreach { v =>
        val mapped = pivots.map(v)
        requireInGrid(mapped, grid.extent)
        val leaf = grid.insert(mapped, -1)
        entries.getOrElseUpdate(leaf.key, mutable.ArrayBuffer.empty) +=
          Posting(col.colId, mapped, v)
      }
    }
    val inverted = InvertedIndex.build(entries)
    val t1 = System.nanoTime()

    new PexesoIndex(
      pivots, levels, grid, inverted,
      columns.map(c => c.colId -> c.size).toMap,
      buildNanos = t1 - t0,
    )
  }
}
