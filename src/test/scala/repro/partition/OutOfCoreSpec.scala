package repro.partition

import java.nio.file.{Files, NoSuchFileException}
import java.util.concurrent.atomic.AtomicInteger
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._
import scala.util.Random
import repro.TestData
import repro.baselines.NaiveSearch
import repro.core.{ColumnVectors, VerifyMode}

class OutOfCoreSpec extends AnyFunSuite {

  private def workerThreads: Set[Thread] =
    Thread.getAllStackTraces.keySet.asScala.filter(_.getName.startsWith("pexeso-ooc-")).toSet

  private def rm(f: java.io.File): Unit = {
    if (f.isDirectory) f.listFiles().foreach(rm)
    f.delete(); ()
  }

  /** 36 clustered columns spilled as 12 random partitions (more partitions
    * than a small machine has cores), with queries near two columns each.
    */
  private def twelvePartitions(body: (IndexedSeq[ColumnVectors],
      Seq[OutOfCore.SpilledIndex], Seq[Array[Array[Double]]]) => Unit): Unit = {
    val rng = new Random(95)
    val cols = TestData.clusteredColumns(rng, nCols = 36, colSize = 10, dim = 8)
    val queries = Seq.tabulate(5) { i =>
      (cols(i).vectors.take(4) ++ cols(i + 18).vectors.take(4)).map(TestData.near(rng, _, 0.05))
    }
    val dir = Files.createTempDirectory("pexeso-ooc6")
    try {
      val parts = Partitioners.split(cols, Partitioners.random(cols, 12))
      assert(parts.size == 12)
      body(cols, OutOfCore.buildAndSpill(parts, 3, 3, dir), queries)
    } finally rm(dir.toFile)
  }

  test("spill + load + partitioned search equals the in-memory exact result") {
    val (cols, query) = TestData.searchInstance(seed = 90, nCols = 16, colSize = 15)
    val assign = Partitioners.random(cols, 4)
    val parts = Partitioners.split(cols, assign)
    val dir = Files.createTempDirectory("pexeso-ooc")
    try {
      val spilled = OutOfCore.buildAndSpill(parts, numPivots = 3, levels = 3, dir)
      assert(spilled.size == parts.size)
      val (got, _) = OutOfCore.searchBatch(spilled, Seq(query), 0.4, 0.5)
      assert(got == Seq(NaiveSearch.search(cols, query, 0.4, 0.5).joinable))
    } finally {
      dir.toFile.listFiles().foreach(_.delete()); Files.deleteIfExists(dir)
    }
  }

  test("partitioning choice does not change the exact result") {
    val (cols, query) = TestData.searchInstance(seed = 91, nCols = 12, colSize = 12)
    val dir = Files.createTempDirectory("pexeso-ooc2")
    try {
      val byRandom = Partitioners.split(cols, Partitioners.random(cols, 3))
      val byJsd    = Partitioners.split(cols, JsdClustering.cluster(cols, 3))
      val a = OutOfCore.searchBatch(
        OutOfCore.buildAndSpill(byRandom, 2, 2, dir.resolve("r")), Seq(query), 0.4, 0.5)._1
      val b = OutOfCore.searchBatch(
        OutOfCore.buildAndSpill(byJsd, 2, 2, dir.resolve("j")), Seq(query), 0.4, 0.5)._1
      assert(a == b)
    } finally rm(dir.toFile)
  }

  test("search works in PEXESO-H mode too") {
    val (cols, query) = TestData.searchInstance(seed = 92)
    val dir = Files.createTempDirectory("pexeso-ooc3")
    try {
      val parts = Partitioners.split(cols, Partitioners.random(cols, 2))
      val spilled = OutOfCore.buildAndSpill(parts, 2, 2, dir)
      val (got, _) = OutOfCore.searchBatch(spilled, Seq(query), 0.4, 0.5, VerifyMode.PexesoH)
      assert(got == Seq(NaiveSearch.search(cols, query, 0.4, 0.5).joinable))
    } finally {
      dir.toFile.listFiles().foreach(_.delete()); Files.deleteIfExists(dir)
    }
  }

  test("a batch of queries gives each query its exact result") {
    val rng = new Random(94)
    val cols = TestData.clusteredColumns(rng, nCols = 16, colSize = 15, dim = 8)
    // queries near the vectors of two columns each, plus one far from the lake
    val queries = Seq.tabulate(6) { i =>
      (cols(i).vectors.take(4) ++ cols(i + 6).vectors.take(4)).map(TestData.near(rng, _, 0.05))
    } :+ Array.fill(8)(TestData.unitVec(rng, 8))
    val dir = Files.createTempDirectory("pexeso-ooc5")
    try {
      val spilled = OutOfCore.buildAndSpill(Partitioners.split(cols, Partitioners.random(cols, 4)), 3, 3, dir)
      for (tau <- Seq(0.2, 0.4); t <- Seq(0.3, 0.6)) {
        val (got, nanos) = OutOfCore.searchBatch(spilled, queries, tau, t)
        assert(got == queries.map(q => NaiveSearch.search(cols, q, tau, t).joinable), s"tau=$tau T=$t")
        assert(got.exists(_.nonEmpty), s"tau=$tau T=$t: no query joins anything")
        assert(nanos > 0)
      }
    } finally {
      dir.toFile.listFiles().foreach(_.delete()); Files.deleteIfExists(dir)
    }
  }

  test("a batch over more partitions than workers gives each query its exact result") {
    twelvePartitions { (cols, spilled, queries) =>
      for (tau <- Seq(0.2, 0.4); t <- Seq(0.3, 0.6)) {
        val (got, _) = OutOfCore.searchBatch(spilled, queries, tau, t)
        assert(got == queries.map(q => NaiveSearch.search(cols, q, tau, t).joinable), s"tau=$tau T=$t")
        assert(got.exists(_.nonEmpty), s"tau=$tau T=$t: no query joins anything")
        assert(workerThreads.isEmpty)
      }
    }
  }

  test("a query of norm > 1 fails with IllegalArgumentException, not ExecutionException") {
    twelvePartitions { (_, spilled, queries) =>
      val tooLong = queries.head.map(_.map(_ * 4))
      intercept[IllegalArgumentException] {
        OutOfCore.searchBatch(spilled, queries :+ tooLong, 0.4, 0.5)
      }
      assert(workerThreads.isEmpty)
    }
  }

  test("a deleted spill file fails with NoSuchFileException") {
    twelvePartitions { (_, spilled, queries) =>
      Files.delete(spilled(7).path)
      intercept[NoSuchFileException](OutOfCore.searchBatch(spilled, queries, 0.4, 0.5))
      assert(workerThreads.isEmpty)
    }
  }

  test("partition tasks run on at most min(#partitions, cores) workers, results in order") {
    val cores = Runtime.getRuntime.availableProcessors
    for (n <- Seq(1, 2, cores + 3)) {
      val running = new AtomicInteger
      val peak = new AtomicInteger
      val names = java.util.concurrent.ConcurrentHashMap.newKeySet[String]()
      val got = OutOfCore.eachPartition(0 until n) { p =>
        peak.accumulateAndGet(running.incrementAndGet(), (a, b) => math.max(a, b))
        names.add(Thread.currentThread.getName)
        Thread.sleep(20)
        running.decrementAndGet()
        p * 10
      }
      assert(got == (0 until n).map(_ * 10))
      assert(peak.get <= math.min(n, cores), s"n=$n")
      assert(names.asScala.forall(_.startsWith("pexeso-ooc-")), s"n=$n")
      assert(names.size <= math.min(n, cores), s"n=$n")
      assert(workerThreads.isEmpty)
    }
    assert(OutOfCore.eachPartition(Seq.empty[Int])(identity).isEmpty)
  }

  test("load restores a working index") {
    val rng = new Random(93)
    val cols = TestData.clusteredColumns(rng, 6, 10, 6)
    val dir = Files.createTempDirectory("pexeso-ooc4")
    try {
      val spilled = OutOfCore.buildAndSpill(Map(0 -> cols), 2, 2, dir)
      val idx = OutOfCore.load(spilled.head)
      assert(idx.numColumns == 6)
    } finally {
      dir.toFile.listFiles().foreach(_.delete()); Files.deleteIfExists(dir)
    }
  }
}
