package pexbench

/** Summary statistics and metric-name rules shared by every workload. */
object Stats {

  /** Samples that must lie strictly above a reported tail percentile. */
  val MinBeyond: Int = 10

  private val NamePattern = "[A-Za-z0-9_.-]+".r

  /** True iff `name` is a legal metric name. */
  def validName(name: String): Boolean = NamePattern.matches(name)

  def requireName(name: String): String = {
    require(validName(name), s"bad metric name: '$name'")
    name
  }

  /** Sample median: the middle value, or the mean of the two middle values. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Searches per second of one pass in which each call, given as (searches
    * in the call, its latency in ms), takes that latency.
    */
  def passRate(calls: Seq[(Int, Double)]): Double =
    calls.map(_._1).sum / (calls.map(_._2).sum / 1e3)

  /** Median search latency over such a pass: every search of a call
    * completes with it.
    */
  def passMedianMs(calls: Seq[(Int, Double)]): Double =
    median(calls.flatMap { case (n, ms) => Seq.fill(n)(ms) })

  /** Nearest-rank percentile `p` of `xs`, or None when fewer than
    * [[MinBeyond]] samples lie above it.
    */
  def percentile(xs: Seq[Double], p: Double): Option[Double] = {
    require(p > 0 && p < 1, s"percentile must be in (0, 1): $p")
    val n = xs.length
    if (n == 0 || n - rank(p, n) < MinBeyond) None
    else Some(xs.sorted.apply(rank(p, n) - 1))
  }

  /** 1-based nearest rank: the smallest r with r / n >= p. */
  private def rank(p: Double, n: Int): Int = math.max(1, math.ceil(p * n - 1e-9).toInt)
}
