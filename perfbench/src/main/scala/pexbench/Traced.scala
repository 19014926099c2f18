package pexbench

import java.io.{BufferedOutputStream, ObjectOutputStream, OutputStream}
import java.nio.file.{Files, Path}
import scala.collection.mutable
import org.apache.spark.sql.functions.col
import repro.bench.BenchConfig
import repro.core._
import repro.lake.LakeGen
import repro.partition.{JsdClustering, OutOfCore, Partitioners}
import repro.spark.SparkPexeso

/** The traced run's pipelines: the same work as [[Pipeline]], recomposed
  * from the public functions of each layer, with a span around each call.
  * Nothing here is timed for the end-to-end metrics.
  */
final class TracedBuild(spans: Spans) {

  /** `PexesoIndex.build`, phase by phase (same sample size and extent). */
  def build(columns: IndexedSeq[ColumnVectors], numPivots: Int, levels: Int): PexesoIndex = {
    val t0 = System.nanoTime()
    val sample = spans("build.sample") {
      PivotSelection.sample(columns.iterator.flatMap(_.vectors).toIndexedSeq, TracedBuild.PivotSample)
    }
    val pivots = spans("build.pca")(PivotSelection.pcaPivots(sample, numPivots))
    val mapped = spans("build.map")(columns.map(c => c.vectors.map(pivots.map)))
    val grid = new HierarchicalGrid(numPivots, levels, HierarchicalGrid.DefaultExtent)
    val leaves = spans("build.grid")(mapped.map(_.map(m => grid.insert(m, -1).key)))
    val inverted = spans("build.inverted") {
      val entries = mutable.HashMap.empty[HierarchicalGrid.CellKey, mutable.ArrayBuffer[Posting]]
      columns.indices.foreach { c =>
        val col = columns(c)
        col.vectors.indices.foreach { i =>
          entries.getOrElseUpdate(leaves(c)(i), mutable.ArrayBuffer.empty) +=
            Posting(col.colId, mapped(c)(i), col.vectors(i))
        }
      }
      InvertedIndex.build(entries)
    }
    new PexesoIndex(pivots, levels, grid, inverted,
      columns.map(c => c.colId -> c.size).toMap, System.nanoTime() - t0)
  }

  /** `PexesoIndex.search` (PEXESO verification, quick browsing on). */
  def search(index: PexesoIndex, query: Array[Array[Double]], tau: Double, tFrac: Double): Outcome = {
    val tAbs = Verify.absThreshold(tFrac, query.length)
    val qm = spans("search.map")(index.pivots.mapAll(query))
    val hgQ = spans("search.hgq") {
      val g = new HierarchicalGrid(index.numPivots, index.levels, index.grid.extent)
      qm.indices.foreach(q => g.insert(qm(q), q))
      g
    }
    val block = spans("block")(Block.run(hgQ, index.grid, qm, tau))
    val (joinable, stats) = spans("verify")(Verify.pexeso(block, index.inverted, qm, query, tau, tAbs))
    Outcome(Seq(joinable), Map(
      "distance_computations" -> stats.distanceComputations,
      "candidate_pairs" -> block.candidates.length.toLong,
      "matching_pairs" -> block.matching.length.toLong,
      "joinable_columns" -> joinable.size.toLong))
  }
}

object TracedBuild {
  /** `PexesoIndex.build`'s default pivot sample. */
  val PivotSample = 2000

  def indexCounters(indexes: Iterable[PexesoIndex]): Map[String, Long] = Map(
    "leaf_cells" -> indexes.map(_.inverted.numCells.toLong).sum,
    "postings" -> indexes.map(_.inverted.numPostings).sum)

  /** Bytes of an index in the form `OutOfCore` spills it. */
  def serializedBytes(index: PexesoIndex): Long = {
    var n = 0L
    val counter = new OutputStream {
      def write(b: Int): Unit = n += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = n += len
    }
    val oos = new ObjectOutputStream(counter)
    try oos.writeObject(index) finally oos.close()
    n
  }
}

/** A traced pipeline: set-up and calls with spans, and the counters of
  * what it built, to compare with the library's build.
  */
trait TracedPipeline {
  def setup(): Unit
  def call(keys: IndexedSeq[Key]): Outcome
  def indexCounters: Map[String, Long]
  /** Bytes per indexed vector: serialized, or spilled for out of core. */
  def indexBytesPerVector: Double
  def close(): Unit = ()
}

object TracedPipeline {
  def apply(in: Inputs, spans: Spans, workDir: Path, library: Pipeline): TracedPipeline =
    (in.workload.kind, library) match {
      case (Kind.InMemory, im: InMemoryPipeline) => new TracedInMemory(in, spans, im)
      case (Kind.OutOfCoreBatch, _)              => new TracedOutOfCore(in, spans, workDir)
      case (Kind.Spark, sp: SparkPipeline)       => new TracedSpark(in, spans, sp)
      case (k, p) => throw new IllegalArgumentException(s"no traced pipeline for $k with $p")
    }

  def embed(in: Inputs, spans: Spans): (IndexedSeq[ColumnVectors], IndexedSeq[Array[Array[Double]]]) = {
    val cols = spans("embed.lake")(LakeGen.embed(in.rest.columns, in.embedder))
    val qs = spans("embed.query")(in.queries.map(q => in.embedder.embedAll(q.values)))
    (cols, qs)
  }
}

/** Searches run on the library's index: the recomposed build, asserted
  * equal to it, places its objects differently in memory, and that alone
  * moved search time by up to a fifth between runs.
  */
final class TracedInMemory(in: Inputs, spans: Spans, library: InMemoryPipeline) extends TracedPipeline {
  private val w = in.workload
  private val tb = new TracedBuild(spans)
  private var index: PexesoIndex = _

  def setup(): Unit = {
    val (cols, _) = TracedPipeline.embed(in, spans)
    index = tb.build(cols, w.pivots, w.levels)
  }

  def call(keys: IndexedSeq[Key]): Outcome = {
    val k = keys.head
    tb.search(library.index, library.queries(k.query), w.taus(k.tauIdx), k.tFrac)
  }

  def indexCounters: Map[String, Long] = TracedBuild.indexCounters(Seq(index))
  def indexBytesPerVector: Double = TracedBuild.serializedBytes(index).toDouble / in.numVectors
}

final class TracedOutOfCore(in: Inputs, spans: Spans, workDir: Path) extends TracedPipeline {
  private val w = in.workload
  private val tb = new TracedBuild(spans)
  private var queries: IndexedSeq[Array[Array[Double]]] = IndexedSeq.empty
  private var spilled: Seq[OutOfCore.SpilledIndex] = Seq.empty
  private val built = mutable.ArrayBuffer.empty[PexesoIndex]
  private val dir = workDir.resolve("traced-spill")
  var bytesRead = 0L
  var loads = 0L

  def setup(): Unit = {
    val (cols, qs) = TracedPipeline.embed(in, spans)
    queries = qs
    val parts = spans("partition.jsd") {
      Partitioners.split(cols, JsdClustering.cluster(cols, BenchConfig.LwdcPartitions))
    }
    Pipeline.deleteTree(dir)
    Files.createDirectories(dir)
    built.clear()
    spilled = parts.toSeq.sortBy(_._1).map { case (p, pcols) =>
      val index = tb.build(pcols, w.pivots, w.levels)
      built += index
      val path = dir.resolve(s"pexeso-part-$p.bin")
      spans("partition.spill") {
        val oos = new ObjectOutputStream(new BufferedOutputStream(Files.newOutputStream(path)))
        try oos.writeObject(index) finally oos.close()
      }
      OutOfCore.SpilledIndex(p, path, pcols.size)
    }
  }

  def spilledBytes: Long = spilled.map(s => Files.size(s.path)).sum

  def call(keys: IndexedSeq[Key]): Outcome = {
    val k = keys.head
    val tau = w.taus(k.tauIdx)
    val sets = Array.fill(keys.length)(Set.empty[Int])
    val counters = mutable.ArrayBuffer.empty[Map[String, Long]]
    spilled.foreach { s =>
      val index = spans("ooc.load")(OutOfCore.load(s))
      bytesRead += Files.size(s.path)
      loads += 1
      keys.indices.foreach { i =>
        val o = tb.search(index, queries(keys(i).query), tau, k.tFrac)
        sets(i) = sets(i) ++ o.joinable.head
        counters += o.counters
      }
    }
    val summed = Outcome.sumCounters(counters)
    Outcome(sets.toSeq, summed.updated("joinable_columns", sets.map(_.size.toLong).sum))
  }

  def indexCounters: Map[String, Long] =
    TracedBuild.indexCounters(built) + ("spilled_bytes" -> spilledBytes)
  def indexBytesPerVector: Double = spilledBytes.toDouble / in.numVectors
  override def close(): Unit = Pipeline.deleteTree(dir)
}

/** `SparkPexeso.search` split into its DataFrame construction and the
  * match-count query; shares the library pipeline's session and pivots.
  */
final class TracedSpark(in: Inputs, spans: Spans, library: SparkPipeline) extends TracedPipeline {
  private val w = in.workload
  private var columns: IndexedSeq[ColumnVectors] = IndexedSeq.empty
  private var queries: IndexedSeq[Array[Array[Double]]] = IndexedSeq.empty
  private var pivots: PivotSet = _

  def setup(): Unit = {
    val (cols, qs) = TracedPipeline.embed(in, spans)
    columns = cols; queries = qs
    val sample = spans("build.sample")(PivotSelection.sample(cols.flatMap(_.vectors), TracedBuild.PivotSample))
    pivots = spans("build.pca")(PivotSelection.pcaPivots(sample, w.pivots))
  }

  def call(keys: IndexedSeq[Key]): Outcome = {
    val k = keys.head
    val spark = library.spark
    val query = queries(k.query)
    val tAbs = Verify.absThreshold(k.tFrac, query.length)
    val lakeDf = spans("spark.lake_df")(SparkPexeso.lakeToDF(spark, columns))
    val s = spans("spark.match") {
      SparkPexeso.matchCounts(lakeDf, SparkPexeso.queryToDF(spark, query), pivots, w.taus(k.tauIdx), w.levels)
        .filter(col("matched") >= tAbs).collect().map(_.getInt(0)).toSet
    }
    Outcome(Seq(s), Map("joinable_columns" -> s.size.toLong))
  }

  def indexCounters: Map[String, Long] = Map.empty
  def indexBytesPerVector: Double = 0.0
}
