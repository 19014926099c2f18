package repro.partition

import java.io._
import java.nio.file.{Files, Path}
import java.util.concurrent.{ConcurrentLinkedQueue, ExecutionException, ExecutorCompletionService, Executors}
import repro.core.{ColumnVectors, PexesoIndex, VerifyMode}

/** Out-of-core joinable table search (paper Section IV): when the lake's
  * index does not fit in memory, each partition is indexed by its own
  * PEXESO and spilled to disk. At query time the partitions are loaded
  * back and searched '''in parallel''', one task per partition on a fixed
  * pool of W = min(#partitions, cores) workers, so at most W partition
  * indexes are resident at once. Every column lives in exactly one
  * partition, so the per-partition results merge by a plain union.
  * [[searchBatch]] reports search time including the index-loading
  * overhead, as in Table VII (right third).
  */
object OutOfCore {

  /** Handle to a spilled per-partition index. */
  final case class SpilledIndex(partition: Int, path: Path, numColumns: Int)

  /** Build one PEXESO per partition and serialize it to `dir`. */
  def buildAndSpill(
      parts: Map[Int, IndexedSeq[ColumnVectors]],
      numPivots: Int,
      levels: Int,
      dir: Path,
  ): Seq[SpilledIndex] = {
    Files.createDirectories(dir)
    parts.toSeq.sortBy(_._1).map { case (p, cols) =>
      val index = PexesoIndex.build(cols, numPivots, levels)
      val path = dir.resolve(s"pexeso-part-$p.bin")
      spill(index, path)
      SpilledIndex(p, path, cols.size)
    }
  }

  def load(spilled: SpilledIndex): PexesoIndex = unspill[PexesoIndex](spilled.path)

  /** Write `obj` to `path` with plain Java serialization. */
  private[repro] def spill(obj: AnyRef, path: Path): Unit = {
    val oos = new ObjectOutputStream(new BufferedOutputStream(Files.newOutputStream(path)))
    try oos.writeObject(obj) finally oos.close()
  }

  /** Read back an object [[spill]] wrote to `path`. */
  private[repro] def unspill[A](path: Path): A = {
    val ois = new ObjectInputStream(new BufferedInputStream(Files.newInputStream(path)))
    try ois.readObject().asInstanceOf[A] finally ois.close()
  }

  /** Batched search: each partition is one task that loads it, runs every
    * query column against it and drops it; the per-query joinable sets are
    * then merged in partition order. This is the natural query-workload
    * protocol (the paper reports totals over 100 queries); timing covers
    * loading + searching.
    */
  def searchBatch(
      spilled: Seq[SpilledIndex],
      queries: Seq[Array[Array[Double]]],
      tau: Double,
      tFrac: Double,
      mode: VerifyMode = VerifyMode.Pexeso,
  ): (Seq[Set[Int]], Long) = {
    val t0 = System.nanoTime()
    val perPartition = eachPartition(spilled) { s =>
      val index = load(s)
      queries.map(q => index.search(q, tau, tFrac, mode).joinable)
    }
    val results = queries.indices.map(i => perPartition.foldLeft(Set.empty[Int])(_ ++ _(i)))
    (results, System.nanoTime() - t0)
  }

  /** Run `task` once per partition on a fixed pool of
    * W = min(#partitions, cores) threads named `pexeso-ooc-<n>`, and return
    * the results in partition order. Each task owns whatever it loads, so
    * nothing is shared between threads and at most W tasks run at once.
    * The first task to fail cancels the others and its exception is
    * rethrown as is. No worker outlives the call.
    */
  private[repro] def eachPartition[P, A](parts: Seq[P])(task: P => A): Seq[A] = {
    val workers = math.min(parts.size, Runtime.getRuntime.availableProcessors)
    if (workers == 0) return Seq.empty
    val threads = new ConcurrentLinkedQueue[Thread]
    val pool = Executors.newFixedThreadPool(workers, (r: Runnable) => {
      val t = new Thread(r, s"pexeso-ooc-${threads.size + 1}")
      threads.add(t)
      t
    })
    try {
      val done = new ExecutorCompletionService[A](pool)
      val futures = parts.map(p => done.submit(() => task(p)))
      // wait in completion order, so a failure ends the wait at once
      try parts.foreach(_ => done.take().get())
      catch { case e: ExecutionException => throw e.getCause }
      futures.map(_.get())
    } finally {
      pool.shutdownNow()
      // a terminated pool can still have exiting threads; joining them is exact
      threads.forEach(_.join())
    }
  }
}
