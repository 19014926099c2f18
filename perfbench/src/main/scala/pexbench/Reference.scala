package pexbench

import java.util.concurrent.{Callable, Executors}
import scala.jdk.CollectionConverters._
import repro.baselines.NaiveSearch
import repro.core.{ColumnVectors, Verify}
import repro.embed.VectorOps

/** Brute-force joinable sets, computed before any timing starts.
  *
  * One pass per query column finds, for every (query vector, lake column)
  * pair, the smallest exact distance; a column is joinable at (τ, T) iff at
  * least `Verify.absThreshold(T, |Q|)` query vectors have such a distance
  * ≤ τ. That is `NaiveSearch`'s definition, shared across the τ × T grid;
  * [[crossCheck]] re-derives some cells with `NaiveSearch.search` itself.
  */
final class Reference(
    columns: IndexedSeq[ColumnVectors],
    queries: IndexedSeq[Array[Array[Double]]],
    taus: Seq[Double],
) {
  /** counts(query)(tau)(column position): query vectors matched. */
  private val counts: IndexedSeq[Array[Array[Int]]] =
    Reference.parallel(queries.indices.map(qi => () => countsFor(queries(qi))))

  private def countsFor(query: Array[Array[Double]]): Array[Array[Int]] = {
    val out = Array.ofDim[Int](taus.length, columns.length)
    val maxTau = taus.max
    var c = 0
    while (c < columns.length) {
      val vs = columns(c).vectors
      var q = 0
      while (q < query.length) {
        var best = Double.MaxValue
        var i = 0
        while (i < vs.length && best > 0.0) {
          val d = VectorOps.euclidean(query(q), vs(i))
          if (d < best) best = d
          i += 1
        }
        if (best <= maxTau) {
          var t = 0
          while (t < taus.length) { if (best <= taus(t)) out(t)(c) += 1; t += 1 }
        }
        q += 1
      }
      c += 1
    }
    out
  }

  /** Joinable column ids of query `qi` at (taus(tauIdx), tFrac). */
  def joinable(qi: Int, tauIdx: Int, tFrac: Double): Set[Int] = {
    val tAbs = Verify.absThreshold(tFrac, queries(qi).length)
    val row = counts(qi)(tauIdx)
    columns.indices.iterator.filter(c => row(c) >= tAbs).map(columns(_).colId).toSet
  }

  /** Re-derive one grid cell per query with `NaiveSearch.search`; returns
    * a description of every cell where the two disagree.
    */
  def crossCheck(tFracs: Seq[Double]): Seq[String] = {
    val cells = queries.indices.map { qi =>
      (qi, qi % taus.length, tFracs((qi / taus.length) % tFracs.length))
    }
    Reference.parallel(cells.map { case (qi, ti, t) => () =>
      val naive = NaiveSearch.search(columns, queries(qi), taus(ti), t).joinable
      if (naive == joinable(qi, ti, t)) None
      else Some(s"reference disagrees with NaiveSearch: query=$qi tau=${taus(ti)} T=$t")
    }).flatten
  }
}

object Reference {
  /** Run independent jobs on a small fixed pool; results in input order. */
  def parallel[A](jobs: IndexedSeq[() => A]): IndexedSeq[A] = {
    val pool = Executors.newFixedThreadPool(math.max(1, math.min(4, Runtime.getRuntime.availableProcessors)))
    try {
      val tasks = jobs.map(j => new Callable[A] { def call(): A = j() })
      pool.invokeAll(tasks.asJava).asScala.map(_.get()).toIndexedSeq
    } finally pool.shutdown()
  }
}
