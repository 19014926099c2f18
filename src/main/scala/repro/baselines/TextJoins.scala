package repro.baselines

/** Record-level string matching predicates and the derived joinable-column
  * search for the effectiveness competitors of paper Section VI-B:
  * equi-join [34], Jaccard-join, and fuzzy-join [29].
  *
  * All three share the joinability definition of the paper — the fraction
  * of query records with at least one matching record in the target column
  * — and differ only in the record-matching predicate.
  */
object TextJoins {

  /** A string column of the lake with its id. */
  final case class StringColumn(colId: Int, name: String, values: IndexedSeq[String])

  // ---------------------------------------------------------------------
  // Record matching predicates
  // ---------------------------------------------------------------------

  /** Exact match after whitespace trim (equi-join). */
  def equiMatch(a: String, b: String): Boolean = a.trim == b.trim

  def tokens(s: String): Set[String] =
    s.toLowerCase.split("[^\\p{Alnum}]+").iterator.filter(_.nonEmpty).toSet

  /** Token-set Jaccard similarity. */
  def jaccard(a: String, b: String): Double = {
    val ta = tokens(a); val tb = tokens(b)
    if (ta.isEmpty && tb.isEmpty) 1.0
    else {
      val inter = ta.intersect(tb).size
      inter.toDouble / (ta.size + tb.size - inter)
    }
  }

  /** Levenshtein edit distance (classic two-row DP). */
  def editDistance(a: String, b: String): Int = {
    if (a.isEmpty) return b.length
    if (b.isEmpty) return a.length
    var prev = Array.tabulate(b.length + 1)(identity)
    var curr = new Array[Int](b.length + 1)
    var i = 1
    while (i <= a.length) {
      curr(0) = i
      var j = 1
      while (j <= b.length) {
        val cost = if (a.charAt(i - 1) == b.charAt(j - 1)) 0 else 1
        curr(j) = math.min(math.min(curr(j - 1) + 1, prev(j) + 1), prev(j - 1) + cost)
        j += 1
      }
      val t = prev; prev = curr; curr = t
      i += 1
    }
    prev(b.length)
  }

  /** Normalized edit similarity of two tokens: 1 − ED / max(|a|, |b|). */
  def editSimilarity(a: String, b: String): Double = {
    val m = math.max(a.length, b.length)
    if (m == 0) 1.0 else 1.0 - editDistance(a, b).toDouble / m
  }

  /** Fuzzy-join record predicate (Wang et al. [29]): fuzzy token overlap
    * where tokens match if their char-level edit similarity ≥ `delta`;
    * the records match if the greedy fuzzy-Jaccard ≥ `theta`.
    */
  def fuzzyJaccard(a: String, b: String, delta: Double = 0.8): Double = {
    val ta = tokens(a).toIndexedSeq
    val tb = tokens(b).toIndexedSeq
    if (ta.isEmpty && tb.isEmpty) return 1.0
    if (ta.isEmpty || tb.isEmpty) return 0.0
    // greedy maximal fuzzy matching of token sets
    val usedB = scala.collection.mutable.BitSet.empty
    var overlap = 0
    ta.foreach { t =>
      var best = -1; var bestSim = delta
      var j = 0
      while (j < tb.length) {
        if (!usedB.contains(j)) {
          val s = editSimilarity(t, tb(j))
          if (s >= bestSim) { bestSim = s; best = j }
        }
        j += 1
      }
      if (best >= 0) { usedB += best; overlap += 1 }
    }
    overlap.toDouble / (ta.size + tb.size - overlap)
  }

  // ---------------------------------------------------------------------
  // Column joinability + search
  // ---------------------------------------------------------------------

  /** Fraction of query values with ≥1 match in `target` under `pred`. */
  def joinability(query: Seq[String], target: Seq[String])(pred: (String, String) => Boolean): Double = {
    if (query.isEmpty) 0.0
    else query.count(q => target.exists(t => pred(q, t))).toDouble / query.size
  }

  def equiJoinability(query: Seq[String], target: Seq[String]): Double = {
    // set-based fast path: equi match is exact equality on trimmed values
    val ts = target.iterator.map(_.trim).toSet
    if (query.isEmpty) 0.0
    else query.count(q => ts.contains(q.trim)).toDouble / query.size
  }

  def jaccardJoinability(query: Seq[String], target: Seq[String], theta: Double): Double =
    joinability(query, target)((a, b) => jaccard(a, b) >= theta)

  def fuzzyJoinability(query: Seq[String], target: Seq[String],
                       theta: Double, delta: Double = 0.8): Double =
    joinability(query, target)((a, b) => fuzzyJaccard(a, b, delta) >= theta)

  /** Per-column joinability values for one method — computing these once
    * lets the joinability threshold T be tuned for free (the paper tunes
    * every competitor's thresholds, Section VI-B).
    */
  def joinabilities(
      columns: Seq[StringColumn],
      query: Seq[String],
      method: Method,
  ): Map[Int, Double] = {
    val jn: (Seq[String], Seq[String]) => Double = method match {
      case Method.Equi                  => equiJoinability
      case Method.Jaccard(theta)        => jaccardJoinability(_, _, theta)
      case Method.Fuzzy(theta, delta)   => fuzzyJoinability(_, _, theta, delta)
    }
    columns.iterator.map(c => c.colId -> jn(query, c.values)).toMap
  }

  /** Joinable-column search over string columns for one predicate family. */
  def search(
      columns: Seq[StringColumn],
      query: Seq[String],
      tFrac: Double,
      method: Method,
  ): Set[Int] =
    joinabilities(columns, query, method).collect { case (col, jn) if jn >= tFrac - 1e-9 => col }.toSet

  sealed trait Method
  object Method {
    case object Equi extends Method
    final case class Jaccard(theta: Double) extends Method
    final case class Fuzzy(theta: Double, delta: Double = 0.8) extends Method
  }
}
