package pexbench

import java.nio.file.{Files, Path}
import org.apache.spark.sql.SparkSession
import repro.bench.BenchConfig
import repro.core.{ColumnVectors, PexesoIndex, PivotSelection, PivotSet}
import repro.embed.HashingEmbedder
import repro.lake.LakeGen
import repro.partition.{JsdClustering, OutOfCore, Partitioners}
import repro.spark.SparkPexeso

/** How a workload's lake is indexed and searched. */
sealed trait Kind
object Kind {
  case object InMemory extends Kind
  /** `BenchConfig.LwdcPartitions` JSD partitions, spilled and batch-searched. */
  case object OutOfCoreBatch extends Kind
  /** `SparkPexeso` on a local session with [[SparkPipeline.Master]]. */
  case object Spark extends Kind
}

/** A benchmark workload: a mini-corpus, its query split, the index
  * parameters and the (T, τ) grid every query column is searched at.
  * README.md records why each one exists.
  */
final case class Workload(
    name: String,
    lake: LakeGen.LakeSpec,
    querySeed: Long,
    pivots: Int,
    levels: Int,
    tFracs: Seq[Double],
    tauPcts: Seq[Double],
    kind: Kind,
) {
  val numQueries: Int = BenchConfig.NumQueries
  val taus: Seq[Double] = tauPcts.map(BenchConfig.tauAbs)

  /** The calls of one pass: one per search, or one per batch. */
  def calls: IndexedSeq[IndexedSeq[Key]] = kind match {
    case Kind.OutOfCoreBatch =>
      for (t <- tFracs.toIndexedSeq; ti <- taus.indices) yield
        (0 until numQueries).map(q => Key(q, ti, t))
    case _ =>
      for (t <- tFracs.toIndexedSeq; ti <- taus.indices; q <- 0 until numQueries) yield
        IndexedSeq(Key(q, ti, t))
  }

  def label(k: Key): String =
    f"workload=$name query=${k.query} tau=${tauPcts(k.tauIdx) * 100}%.0f%% T=${k.tFrac * 100}%.0f%%"
}

object Workload {
  /** Lake seeds are the `BenchConfig` specs; query-split seeds are the
    * ones Table VII uses for the same corpus.
    */
  val all: Seq[Workload] = Seq(
    Workload("open-verify", BenchConfig.openMini, querySeed = 33L,
      BenchConfig.OpenPivots, BenchConfig.OpenLevels,
      BenchConfig.TFracs, BenchConfig.TauPcts, Kind.InMemory),
    // the paper's OPEN optimum m = 6, where blocking is a large share
    Workload("open-block", BenchConfig.openMini, querySeed = 33L,
      BenchConfig.OpenPivots, levels = 6,
      Seq(BenchConfig.DefaultTFrac), BenchConfig.TauPcts, Kind.InMemory),
    Workload("lwdc-ooc", BenchConfig.lwdcMini, querySeed = 44L,
      BenchConfig.SwdcPivots, BenchConfig.SwdcLevels,
      BenchConfig.TFracs, BenchConfig.TauPcts, Kind.OutOfCoreBatch),
    // levels = the single grid level SparkPexeso.search uses by default
    Workload("swdc-spark", BenchConfig.swdcMini, querySeed = 55L,
      BenchConfig.SwdcPivots, levels = 3,
      Seq(BenchConfig.DefaultTFrac), Seq(BenchConfig.DefaultTauPct), Kind.Spark),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}

/** The generated lake (not timed): query columns split off the rest. */
final class Inputs(val workload: Workload, lakeSeed: Long, querySeed: Long) {
  val lake: LakeGen.Lake = LakeGen.generate(workload.lake.copy(seed = lakeSeed))
  val (queries, rest) = LakeGen.splitQueries(lake, workload.numQueries, querySeed)
  val embedder: HashingEmbedder = new HashingEmbedder(workload.lake.dim)
  val numVectors: Long = rest.numVectors
}

/** One end-to-end pipeline through the program's top-level API only, so
  * that refactors of the layers below need no benchmark edit.
  */
trait Pipeline extends AutoCloseable {
  /** One timed set-up: embed the lake and queries, build the index. */
  def setup(): Unit
  /** Embedded lake and queries of the latest set-up. */
  def columns: IndexedSeq[ColumnVectors]
  def queries: IndexedSeq[Array[Array[Double]]]
  def call(keys: IndexedSeq[Key]): Outcome
  /** Deterministic size counters of the built index. */
  def indexCounters: Map[String, Long] = Map.empty
  def close(): Unit = ()
}

object Pipeline {
  def apply(in: Inputs, workDir: Path): Pipeline = in.workload.kind match {
    case Kind.InMemory       => new InMemoryPipeline(in)
    case Kind.OutOfCoreBatch => new OutOfCorePipeline(in, workDir)
    case Kind.Spark          => new SparkPipeline(in, workDir)
  }

  def embed(in: Inputs): (IndexedSeq[ColumnVectors], IndexedSeq[Array[Array[Double]]]) =
    (LakeGen.embed(in.rest.columns, in.embedder), in.queries.map(q => in.embedder.embedAll(q.values)))

  def deleteTree(dir: Path): Unit = if (Files.exists(dir)) {
    val s = Files.walk(dir)
    try s.sorted(java.util.Comparator.reverseOrder[Path]()).forEach(p => Files.delete(p))
    finally s.close()
  }
}

final class InMemoryPipeline(in: Inputs) extends Pipeline {
  private val w = in.workload
  var columns: IndexedSeq[ColumnVectors] = IndexedSeq.empty
  var queries: IndexedSeq[Array[Array[Double]]] = IndexedSeq.empty
  var index: PexesoIndex = _

  def setup(): Unit = {
    val (c, q) = Pipeline.embed(in)
    columns = c; queries = q
    index = PexesoIndex.build(columns, w.pivots, w.levels)
  }

  def call(keys: IndexedSeq[Key]): Outcome = {
    val k = keys.head
    val r = index.search(queries(k.query), w.taus(k.tauIdx), k.tFrac)
    Outcome(Seq(r.joinable), Map(
      "distance_computations" -> r.distanceComputations,
      "candidate_pairs" -> r.candidatePairs,
      "matching_pairs" -> r.matchingPairs,
      "joinable_columns" -> r.joinable.size.toLong))
  }

  override def indexCounters: Map[String, Long] = TracedBuild.indexCounters(Seq(index))
}

final class OutOfCorePipeline(in: Inputs, workDir: Path) extends Pipeline {
  private val w = in.workload
  var columns: IndexedSeq[ColumnVectors] = IndexedSeq.empty
  var queries: IndexedSeq[Array[Array[Double]]] = IndexedSeq.empty
  var spilled: Seq[OutOfCore.SpilledIndex] = Seq.empty
  private var dir: Path = _
  private var round = 0

  def setup(): Unit = {
    val (c, q) = Pipeline.embed(in)
    columns = c; queries = q
    val parts = Partitioners.split(columns, JsdClustering.cluster(columns, BenchConfig.LwdcPartitions))
    val next = workDir.resolve(s"spill-$round")
    round += 1
    spilled = OutOfCore.buildAndSpill(parts, w.pivots, w.levels, next)
    if (dir != null) Pipeline.deleteTree(dir)
    dir = next
  }

  def spilledBytes: Long = spilled.map(s => Files.size(s.path)).sum

  def call(keys: IndexedSeq[Key]): Outcome = {
    val k = keys.head
    val (sets, _) = OutOfCore.searchBatch(spilled, keys.map(x => queries(x.query)), w.taus(k.tauIdx), k.tFrac)
    Outcome(sets, Map("joinable_columns" -> sets.map(_.size.toLong).sum))
  }

  override def indexCounters: Map[String, Long] = Map("spilled_bytes" -> spilledBytes)

  /** Leaf-cell and posting counts of the spilled indexes (loads them all). */
  def loadedIndexCounters: Map[String, Long] =
    TracedBuild.indexCounters(spilled.map(OutOfCore.load))

  override def close(): Unit = if (dir != null) Pipeline.deleteTree(dir)
}

/** SparkPexeso on a local session. `EndToEndRun` counts the session start
  * and the first (cold) query as set-up too.
  */
final class SparkPipeline(in: Inputs, workDir: Path) extends Pipeline {
  private val w = in.workload
  var columns: IndexedSeq[ColumnVectors] = IndexedSeq.empty
  var queries: IndexedSeq[Array[Array[Double]]] = IndexedSeq.empty
  var pivots: PivotSet = _
  private var session: SparkSession = _

  def spark: SparkSession = {
    if (session == null) session = SparkPipeline.start(workDir)
    session
  }

  def setup(): Unit = {
    val (c, q) = Pipeline.embed(in)
    columns = c; queries = q
    pivots = SparkPipeline.selectPivots(columns, w.pivots)
  }

  def call(keys: IndexedSeq[Key]): Outcome = {
    val k = keys.head
    val s = SparkPexeso.search(spark, columns, queries(k.query), pivots, w.taus(k.tauIdx), k.tFrac, w.levels)
    Outcome(Seq(s), Map("joinable_columns" -> s.size.toLong))
  }

  override def close(): Unit = if (session != null) session.stop()
}

object SparkPipeline {
  val Master = "local[4]"

  /** Settings as `repro.jobs.JobUtil`, except one shuffle partition per
    * local core: with Spark's default of 200, per-query task scheduling
    * dominated a search and varied from run to run.
    */
  def start(workDir: Path): SparkSession = {
    val s = SparkSession.builder()
      .master(Master)
      .appName("perfbench")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.shuffle.partitions", 4)
      .config("spark.ui.enabled", false)
      .config("spark.local.dir", workDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", workDir.resolve("spark-warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  /** Pivot selection as Table VII's distributed data point does it. */
  def selectPivots(columns: IndexedSeq[ColumnVectors], numPivots: Int): PivotSet =
    PivotSelection.pcaPivots(PivotSelection.sample(columns.flatMap(_.vectors), TracedBuild.PivotSample), numPivots)
}
