package pexbench

import scala.collection.mutable
import scala.util.Random

/** One search: query column `query` against the whole lake at
  * (taus(tauIdx), tFrac).
  */
final case class Key(query: Int, tauIdx: Int, tFrac: Double)

/** What one call into the program returned: the joinable set of each of
  * its searches (in the order of its keys) and deterministic work counters.
  */
final case class Outcome(joinable: Seq[Set[Int]], counters: Map[String, Long])

object Outcome {
  def sumCounters(cs: Iterable[Map[String, Long]]): Map[String, Long] =
    cs.flatten.groupMapReduce(_._1)(_._2)(_ + _)
}

/** The closed loop: one client thread with one call outstanding at a
  * time. A call is one search, or one batch of searches for a batched API;
  * every search of a batch completes when the batch does, so each gets the
  * batch's latency.
  *
  * Calls run in a seeded random order, reshuffled for every pass over the
  * workload. The timed window continues that order until its time is up,
  * so a call may be timed once more than another. The metrics therefore
  * summarise each call by the median of its own timed runs. Each answer is
  * compared with the brute-force reference; each call's counters must
  * repeat exactly whenever it runs again.
  */
final class Loop(
    calls: IndexedSeq[IndexedSeq[Key]],
    expected: Key => Set[Int],
    seed: Long,
    label: Key => String,
) {
  private val rng = new Random(seed)
  private var order: IndexedSeq[Int] = IndexedSeq.empty
  private var pos = 0

  val latenciesNs = mutable.ArrayBuffer.empty[Long]
  var busyNs = 0L
  var attempted = 0L
  var failed = 0L
  val problems = mutable.ArrayBuffer.empty[String]
  private val firstCounters = mutable.HashMap.empty[Int, Map[String, Long]]
  /** Timed latencies of each call, by call index. */
  private val callNs = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Long]]

  private def next(): Int = {
    if (pos == order.length) { order = rng.shuffle(calls.indices.toIndexedSeq); pos = 0 }
    pos += 1
    order(pos - 1)
  }

  /** Run untimed calls until `seconds` have passed (warm-up). */
  def warmFor(seconds: Double)(call: IndexedSeq[Key] => Outcome): Unit = {
    val end = System.nanoTime() + (seconds * 1e9).toLong
    while (System.nanoTime() < end) runOne(timed = false)(call)
  }

  /** Timed calls for `seconds`, continuing the seeded order, and at least
    * one whole pass, so every call is timed at least once.
    */
  def runTimed(seconds: Double)(call: IndexedSeq[Key] => Outcome): Unit = {
    startPass()
    val t0 = System.nanoTime()
    var n = 0
    while (n < calls.length || (System.nanoTime() - t0) / 1e9 < seconds) {
      runOne(timed = true)(call)
      n += 1
    }
    passes += n.toDouble / calls.length
  }

  /** The next call starts a new pass. */
  def startPass(): Unit = pos = order.length

  var passes = 0.0

  def runOne(timed: Boolean)(call: IndexedSeq[Key] => Outcome): Unit = {
    val ci = next()
    val keys = calls(ci)
    attempted += keys.length
    val t0 = System.nanoTime()
    val out = try Right(call(keys)) catch { case e: Exception => Left(e) }
    val ns = System.nanoTime() - t0
    out match {
      case Left(e) =>
        failed += keys.length
        problem(s"${keys.map(label).mkString("; ")}: threw $e")
      case Right(o) =>
        keys.indices.foreach { i =>
          val want = expected(keys(i))
          if (o.joinable(i) != want) {
            failed += 1
            problem(s"${label(keys(i))}: joinable set differs from NaiveSearch " +
              s"(missing ${(want -- o.joinable(i)).toSeq.sorted.take(10).mkString(",")}; " +
              s"extra ${(o.joinable(i) -- want).toSeq.sorted.take(10).mkString(",")})")
          }
        }
        firstCounters.get(ci) match {
          case None => firstCounters(ci) = o.counters
          case Some(c) if c != o.counters =>
            problem(s"counters of call ${keys.map(label).mkString("; ")} did not repeat: $c then ${o.counters}")
          case _ =>
        }
        if (timed) {
          busyNs += ns
          keys.foreach(_ => latenciesNs += ns)
          callNs.getOrElseUpdate(ci, mutable.ArrayBuffer.empty) += ns
        }
    }
  }

  private def problem(msg: String): Unit = if (problems.length < 50) problems += msg

  def searches: Long = latenciesNs.length.toLong

  /** Counters summed over one pass, once every call has run at least once. */
  def passCounters: Option[Map[String, Long]] =
    if (firstCounters.size < calls.length) None
    else Some(Outcome.sumCounters(firstCounters.values))

  /** Each timed call as (its searches, the median of its latencies in ms). */
  private def callMedians: Seq[(Int, Double)] =
    callNs.toSeq.map { case (ci, ns) => calls(ci).length -> Stats.median(ns.map(_ / 1e6).toSeq) }

  /** Fewest and most timed runs of one call. */
  def repeats: (Int, Int) = (callNs.values.map(_.length).min, callNs.values.map(_.length).max)

  /** Searches per second of one pass at each call's median latency. */
  def queriesPerSecond: Double = Stats.passRate(callMedians)

  /** Median search latency over that pass. */
  def medianLatencyMs: Double = Stats.passMedianMs(callMedians)

  /** Tail percentile `p` over every timed search, if the sample supports it. */
  def latencyMs(p: Double): Option[Double] = Stats.percentile(latenciesNs.map(_ / 1e6).toSeq, p)
}
