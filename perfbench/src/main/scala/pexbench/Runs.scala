package pexbench

import scala.collection.mutable

/** The end-to-end run: top-level API only, no tracing. */
object EndToEndRun {

  /** Timed set-ups per run; `setup_s` is their median. */
  def setupReps(kind: Kind): Int = kind match {
    case Kind.InMemory       => 7
    case Kind.OutOfCoreBatch => 3
    case Kind.Spark          => 3
  }

  def run(args: Main.Args, report: Report): Unit = {
    val w = args.workload
    val in = new Inputs(w, args.lakeSeed, args.querySeed)
    val p = Pipeline(in, Main.WorkDir)
    try {
      val reps = (1 to setupReps(w.kind)).map(_ => Main.timed(p.setup()))
      var setupS = Stats.median(reps)
      var setupNote = s"median of ${reps.length} set-ups"
      val ref = Common.reference(p, w, report)
      val loop = new Loop(w.calls, Common.expected(ref), args.seed, w.label)
      p match {
        case sp: SparkPipeline =>
          // session start and the first (cold) query are paid once per run
          val session = Main.timed(sp.spark)
          val first = Main.timed(loop.runOne(timed = false)(p.call))
          report.note(f"set-up: session start $session%.3f s, cold first query $first%.3f s, " +
            f"embedding + pivots ${Stats.median(reps)}%.3f s (median of ${reps.length})")
          setupS += session + first
          setupNote = "session + cold query + median embedding and pivots"
        case _ =>
          report.note(s"set-up seconds: ${reps.map(r => f"$r%.3f").mkString(" ")}")
      }
      // compact the heap the set-ups left, so each run searches a similar layout
      System.gc()
      loop.warmFor(Main.warmSeconds(w.kind))(p.call)
      val t0 = System.nanoTime()
      loop.runTimed(args.seconds)(p.call)
      val wall = Main.secondsSince(t0)

      report.metric("setup_s", setupS, "s", setupNote)
      val (fewest, most) = loop.repeats
      report.metric("queries_per_s", loop.queriesPerSecond, "1/s",
        f"${loop.searches} searches in ${loop.passes}%.2f passes, ${loop.busyNs / 1e9}%.3f s busy of $wall%.3f s")
      report.metric("query_p50_ms", loop.medianLatencyMs, "ms",
        s"n=${loop.searches}; each call timed $fewest-$most times")
      Common.tail(loop, report)
      Common.finish(args, p, loop, report)
    } finally p.close()
  }
}

object Common {
  def reference(p: Pipeline, w: Workload, report: Report): Reference = {
    val ref = new Reference(p.columns, p.queries, w.taus)
    ref.crossCheck(w.tFracs).foreach(report.fail)
    ref
  }

  def expected(ref: Reference)(k: Key): Set[Int] = ref.joinable(k.query, k.tauIdx, k.tFrac)

  /** The highest percentile the sample supports, with its count. */
  def tail(loop: Loop, report: Report): Unit = {
    val ps = Seq(0.99, 0.95, 0.9, 0.75)
    ps.find(p => loop.latencyMs(p).isDefined) match {
      case Some(p) => report.note(f"latency p${p * 100}%.0f = ${loop.latencyMs(p).get}%.3f ms (n=${loop.searches})")
      case None => report.note(s"latency: n=${loop.searches} supports no tail percentile above p50")
    }
  }

  def finish(args: Main.Args, p: Pipeline, loop: Loop, report: Report): Unit = {
    report.searches(loop.attempted, loop.failed)
    loop.problems.foreach(report.fail)
    loop.passCounters match {
      case Some(c) =>
        val all = c ++ p.indexCounters
        report.note("counters: " + CounterRecord.show(all))
        CounterRecord.check(args, all, report)
      case None => report.note("counters: not every call ran; no pass total to compare")
    }
  }
}

/** The traced run: recomposed pipelines with spans, checked against the
  * library calls, and the per-layer metrics.
  */
object TraceRun {

  def run(args: Main.Args, report: Report): Unit = {
    val w = args.workload
    val in = new Inputs(w, args.lakeSeed, args.querySeed)
    val lib = Pipeline(in, Main.WorkDir)
    val spans = new Spans
    var traced: TracedPipeline = null
    try {
      lib.setup()
      lib match { case sp: SparkPipeline => spans("spark.session")(sp.spark); case _ => }
      traced = TracedPipeline(in, spans, Main.WorkDir, lib)
      spans.newTrace()
      spans("setup")(traced.setup())
      val setupSpans = spans.all.length

      val libIndex = lib match {
        case oc: OutOfCorePipeline => oc.loadedIndexCounters ++ oc.indexCounters
        case _ => lib.indexCounters
      }
      if (libIndex != traced.indexCounters)
        report.fail(s"recomposed build differs: library ${CounterRecord.show(libIndex)} " +
          s"vs traced ${CounterRecord.show(traced.indexCounters)}")

      val ref = Common.reference(lib, w, report)

      // Warm up through the library, then alternate one library call with
      // one traced call, in whole passes of each, so both see the same
      // JIT and machine state and their difference is the tracing overhead.
      val untraced = new Loop(w.calls, Common.expected(ref), args.seed, w.label)
      val tracedLoop = new Loop(w.calls, Common.expected(ref), args.seed, w.label)
      System.gc()
      untraced.warmFor(Main.warmSeconds(w.kind))(lib.call)
      val libOut = mutable.HashMap.empty[IndexedSeq[Key], Outcome]
      val tracedOut = mutable.HashMap.empty[IndexedSeq[Key], Outcome]
      def libCall(keys: IndexedSeq[Key]): Outcome = {
        val o = lib.call(keys)
        libOut.getOrElseUpdate(keys, o)
        o
      }
      def tracedCall(keys: IndexedSeq[Key]): Outcome = {
        spans.newTrace()
        val o = spans("call")(traced.call(keys))
        tracedOut.getOrElseUpdate(keys, o)
        o
      }
      untraced.startPass()
      tracedLoop.startPass()
      val gc0 = Spans.gcNanos()
      val t0 = System.nanoTime()
      var passes = 0
      var elapsed = 0.0
      while (passes == 0 || elapsed + elapsed / passes / 2 < args.seconds) {
        w.calls.indices.foreach { _ =>
          untraced.runOne(timed = true)(libCall)
          tracedLoop.runOne(timed = true)(tracedCall)
        }
        passes += 1
        elapsed = Main.secondsSince(t0)
      }
      val gcNs = Spans.gcNanos() - gc0

      // the loops already check that each call's counters repeat exactly
      val mismatches = w.calls.flatMap { keys =>
        val o = tracedOut(keys)
        val l = libOut(keys)
        val libCounters = lib match {
          case oc: OutOfCorePipeline => searchCounters(oc, keys, w) ++ l.counters
          case _ => l.counters
        }
        if (o.joinable == l.joinable && libCounters.forall { case (c, n) => o.counters.get(c).contains(n) }) None
        else Some(s"${keys.map(w.label).mkString("; ")}: traced ${CounterRecord.show(o.counters)} " +
          s"vs library ${CounterRecord.show(libCounters)}")
      }
      mismatches.take(20).foreach(m => report.fail("recomposed search differs from the library: " + m))

      report.searches(untraced.attempted + tracedLoop.attempted, untraced.failed + tracedLoop.failed)
      (untraced.problems ++ tracedLoop.problems).foreach(report.fail)
      perLayer(args, report, spans, setupSpans, traced, untraced, tracedLoop, gcNs, in)
    } finally {
      if (traced != null) traced.close()
      lib.close()
      writeSpans(args, spans)
    }
  }

  /** Work counters of an out-of-core batch, from the library's own
    * `PexesoIndex.search` on each partition `OutOfCore.load` returns.
    */
  private def searchCounters(oc: OutOfCorePipeline, keys: IndexedSeq[Key], w: Workload): Map[String, Long] = {
    val k = keys.head
    val rs = oc.spilled.flatMap { s =>
      val index = repro.partition.OutOfCore.load(s)
      keys.map(x => index.search(oc.queries(x.query), w.taus(k.tauIdx), k.tFrac))
    }
    Map(
      "distance_computations" -> rs.map(_.distanceComputations).sum,
      "candidate_pairs" -> rs.map(_.candidatePairs).sum,
      "matching_pairs" -> rs.map(_.matchingPairs).sum)
  }

  private def perLayer(args: Main.Args, report: Report, spans: Spans, setupSpans: Int,
                       traced: TracedPipeline, untraced: Loop, tracedLoop: Loop,
                       gcNs: Long, in: Inputs): Unit = {
    val setup = spans.all.take(setupSpans)
    val loopSpans = spans.all.drop(setupSpans)
    def setupNs(name: String): Double = setup.filter(_.name == name).map(_.nanos).sum.toDouble
    val n = tracedLoop.searches.toDouble
    def perSearch(name: String): Double = loopSpans.filter(_.name == name).map(_.nanos).sum / n
    def allocPerSearch(name: String): Double = loopSpans.filter(_.name == name).map(_.allocBytes).sum / n
    val pass = tracedLoop.passCounters.getOrElse(Map.empty)
    def count(c: String): Double = pass.getOrElse(c, 0L).toDouble
    def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b
    val busy = tracedLoop.busyNs.toDouble

    report.metric("embed.lake_ns", setupNs("embed.lake"), "ns/setup")
    report.metric("embed.query_ns", setupNs("embed.query"), "ns/setup")
    Seq("sample", "pca", "map", "grid", "inverted").foreach { ph =>
      report.metric(s"build.${ph}_ns", setupNs(s"build.$ph"), "ns/setup")
    }
    report.metric("build.leaf_cells", traced.indexCounters.getOrElse("leaf_cells", 0L).toDouble, "count")
    report.metric("build.postings", traced.indexCounters.getOrElse("postings", 0L).toDouble, "count")
    report.metric("build.index_bytes_per_vector", traced.indexBytesPerVector, "B/vector")
    report.metric("partition.jsd_ns", setupNs("partition.jsd"), "ns/setup")
    report.metric("partition.spill_ns", setupNs("partition.spill"), "ns/setup")
    report.metric("partition.bytes_written", traced.indexCounters.getOrElse("spilled_bytes", 0L).toDouble, "B")

    val (loads, bytesRead) = traced match {
      case oc: TracedOutOfCore => (oc.loads, oc.bytesRead)
      case _ => (0L, 0L)
    }
    val passes = tracedLoop.searches / args.workload.calls.map(_.length).sum.toDouble
    report.metric("ooc.load_ns", perSearch("ooc.load"), "ns/search")
    report.metric("ooc.bytes_read", ratio(bytesRead.toDouble, passes), "B/pass")
    report.metric("ooc.loads", ratio(loads.toDouble, passes), "count/pass")
    report.metric("ooc.alloc_bytes", allocPerSearch("ooc.load"), "B/search")
    report.metric("ooc.load_share", ratio(perSearch("ooc.load") * n, busy), "ratio")

    report.metric("search.map_ns", perSearch("search.map"), "ns/search")
    report.metric("search.hgq_ns", perSearch("search.hgq"), "ns/search")
    report.metric("block.ns", perSearch("block"), "ns/search")
    report.metric("block.alloc_bytes", allocPerSearch("block"), "B/search")
    report.metric("block.candidate_pairs", count("candidate_pairs"), "count/pass")
    report.metric("block.matching_pairs", count("matching_pairs"), "count/pass")
    report.metric("block.match_share",
      ratio(count("matching_pairs"), count("matching_pairs") + count("candidate_pairs")), "ratio")
    report.metric("block.share", ratio(perSearch("block") * n, busy), "ratio")
    report.metric("verify.ns", perSearch("verify"), "ns/search")
    report.metric("verify.alloc_bytes", allocPerSearch("verify"), "B/search")
    report.metric("verify.distance_computations", count("distance_computations"), "count/pass")
    report.metric("verify.dist_per_candidate",
      ratio(count("distance_computations"), count("candidate_pairs")), "ratio")
    report.metric("verify.share", ratio(perSearch("verify") * n, busy), "ratio")
    report.metric("search.joinable_columns", count("joinable_columns"), "count/pass")

    report.metric("spark.session_ns", setupNs("spark.session"), "ns/setup")
    report.metric("spark.lake_df_ns", perSearch("spark.lake_df"), "ns/search")
    report.metric("spark.match_ns", perSearch("spark.match"), "ns/search")
    report.metric("jvm.gc_ns", gcNs / (n + untraced.searches), "ns/search", "library and traced calls")

    report.metric("search.samples", untraced.searches.toDouble, "count", "untraced library calls")
    report.metric("search.p90_ms", untraced.latencyMs(0.9).getOrElse(0.0), "ms",
      "untraced; 0 with fewer than 100 samples")
    report.metric("trace.untraced_queries_per_s", untraced.queriesPerSecond, "1/s")
    report.metric("trace.traced_queries_per_s", tracedLoop.queriesPerSecond, "1/s")
    report.metric("trace.unattributed_share", ratio(spans.selfNanos("call").toDouble, busy), "ratio",
      "call time outside every layer span")
    report.metric("trace.overhead", 1.0 - tracedLoop.queriesPerSecond / untraced.queriesPerSecond, "ratio")
  }

  private def writeSpans(args: Main.Args, spans: Spans): Unit = {
    val f = Main.WorkDir.resolve(s"spans-${args.workload.name}-seed${args.seed}.json")
    java.nio.file.Files.writeString(f, Json.write(spans.toJson))
    println(s"  spans written to $f")
  }
}
