package repro.lake

import scala.util.Random
import repro.core.ColumnVectors
import repro.embed.HashingEmbedder

/** Synthetic data-lake generator with known ground truth — the stand-in
  * for the paper's OPEN / SWDC / LWDC corpora and their human joinability
  * labels (substitution documented in DESIGN.md §4).
  *
  * A lake has a set of entity '''domains'''; several columns sample
  * (different, partially overlapping subsets of) the same domain's entity
  * pool and pass the values through a dirtying channel; distractor columns
  * come from unique domains. Ground truth: a target column is joinable to
  * a query column iff the fraction of the query's ''source entities''
  * also present in the target's source entities reaches a threshold —
  * i.e., the clean-world joinability, before any dirt.
  */
object LakeGen {

  /** One lake column: the clean source entities it drew, the per-column
    * representation style, and the values it exposes in that style.
    */
  final case class LakeColumn(
      colId: Int,
      name: String,
      domainId: Int,
      style: Entities.Style,
      sourceEntities: IndexedSeq[String],
      values: IndexedSeq[String],
  )

  final case class Lake(columns: IndexedSeq[LakeColumn], spec: LakeSpec) {
    def numVectors: Long = columns.iterator.map(_.values.size.toLong).sum
    def avgColSize: Double = numVectors.toDouble / columns.size
  }

  /** Generation parameters.
    *
    * @param dim            embedding dimensionality for this lake
    * @param sharedDomains  domains that several columns draw from
    * @param colsPerShared  columns per shared domain (joinable candidates)
    * @param distractors    columns drawn from unique (unshared) domains
    * @param poolSize       entities per domain pool
    * @param colSizeMin/Max records per column (uniform)
    * @param noise          per-record misspelling probability inside
    *                       Misspell-style columns (other styles transform
    *                       the whole column deterministically)
    * @param seed           master seed
    */
  final case class LakeSpec(
      dim: Int,
      sharedDomains: Int,
      colsPerShared: Int,
      distractors: Int,
      poolSize: Int,
      colSizeMin: Int,
      colSizeMax: Int,
      noise: Double,
      seed: Long,
  )

  def generate(spec: LakeSpec): Lake = {
    val rng = new Random(spec.seed)
    val columns = IndexedSeq.newBuilder[LakeColumn]
    var colId = 0

    def mkColumn(domainId: Int, pool: IndexedSeq[String], name: String): LakeColumn = {
      val size = spec.colSizeMin + rng.nextInt(spec.colSizeMax - spec.colSizeMin + 1)
      val n = math.min(size, pool.size)
      val src = rng.shuffle(pool.indices.toIndexedSeq).take(n).map(pool(_))
      val style = Entities.pickStyle(rng, spec.noise)
      val values = src.map(e => Entities.applyStyle(e, style, rng))
      val c = LakeColumn(colId, name, domainId, style, src, values)
      colId += 1
      c
    }

    var domainId = 0
    (0 until spec.sharedDomains).foreach { d =>
      val tpe = Entities.DomainType.all(d % Entities.DomainType.all.size)
      val pool = Entities.pool(tpe, spec.poolSize, spec.seed ^ (domainId * 0x9E3779B9L))
      (0 until spec.colsPerShared).foreach { j =>
        columns += mkColumn(domainId, pool, s"t${domainId}_$j.$tpe")
      }
      domainId += 1
    }
    (0 until spec.distractors).foreach { _ =>
      val tpe = Entities.DomainType.all(domainId % Entities.DomainType.all.size)
      val pool = Entities.pool(tpe, spec.poolSize, spec.seed ^ (domainId * 0x9E3779B9L))
      columns += mkColumn(domainId, pool, s"t${domainId}_0.$tpe")
      domainId += 1
    }

    Lake(columns.result(), spec)
  }

  /** Split a lake into `n` query columns (removed, as the paper removes
    * sampled query tables) and the remaining repository. Query columns are
    * taken from shared domains so they have non-trivial ground truth.
    */
  def splitQueries(lake: Lake, n: Int, seed: Long): (IndexedSeq[LakeColumn], Lake) = {
    val rng = new Random(seed)
    val shared = lake.columns.filter(_.domainId < lake.spec.sharedDomains)
    val chosen = rng.shuffle(shared).take(n).map(_.colId).toSet
    val queries = lake.columns.filter(c => chosen.contains(c.colId))
    val rest = lake.copy(columns = lake.columns.filterNot(c => chosen.contains(c.colId)))
    (queries, rest)
  }

  /** Ground-truth joinable columns for a query: clean-world joinability
    * (overlap of source entities over |Q|) ≥ `g`.
    */
  def groundTruth(query: LakeColumn, lake: Lake, g: Double): Set[Int] = {
    val qs = query.sourceEntities.toSet
    lake.columns.iterator.filter { c =>
      val overlap = c.sourceEntities.count(qs.contains)
      overlap.toDouble / query.sourceEntities.size >= g - 1e-9
    }.map(_.colId).toSet
  }

  /** Embed a lake's columns for the vector-based methods. */
  def embed(columns: Seq[LakeColumn], embedder: HashingEmbedder): IndexedSeq[ColumnVectors] =
    columns.iterator.map { c =>
      ColumnVectors(c.colId, c.name, embedder.embedAll(c.values))
    }.toIndexedSeq

  // ---------------------------------------------------------------------
  // Scaled-down stand-ins for the paper's corpora (Table III)
  // ---------------------------------------------------------------------

  /** OPEN-mini: fewer, longer columns (paper: 21.6K cols, avg 796 vec,
    * fastText 300-d). Mini: ~220 cols, avg ~90, 100-d.
    */
  def openMiniSpec(seed: Long = 101L): LakeSpec = LakeSpec(
    dim = 100, sharedDomains = 20, colsPerShared = 6, distractors = 100,
    poolSize = 150, colSizeMin = 60, colSizeMax = 120, noise = 0.8, seed = seed)

  /** SWDC-mini: many short columns (paper: 516K cols, avg 16.7, GloVe
    * 50-d). Mini: ~2600 cols, avg ~10, 50-d.
    */
  def swdcMiniSpec(seed: Long = 202L): LakeSpec = LakeSpec(
    dim = 50, sharedDomains = 60, colsPerShared = 6, distractors = 2200,
    poolSize = 16, colSizeMin = 6, colSizeMax = 14, noise = 0.8, seed = seed)

  /** LWDC-mini: the out-of-core lake (paper: 48.9M cols, avg 12.3, 50-d).
    * Mini: ~12.4K cols, avg ~10, 50-d, searched in 10 partitions.
    */
  def lwdcMiniSpec(seed: Long = 303L): LakeSpec = LakeSpec(
    dim = 50, sharedDomains = 120, colsPerShared = 7, distractors = 11600,
    poolSize = 16, colSizeMin = 6, colSizeMax = 14, noise = 0.8, seed = seed)
}
