package pexbench

import java.nio.file.{Files, Path, Paths}
import scala.collection.immutable.ListMap

/** Benchmark entry point; see README.md.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *      [--lake-seed <n>] [--query-seed <n>]
  * }}}
  *
  * Prints a readable report, then as its last line one JSON object with
  * `correct`, `attempted`, `failed` and `metrics`. Runs from the root of
  * the checkout; scratch files go under `.bench_build/perfbench`.
  */
object Main {

  final case class Args(
      workload: Workload,
      seed: Long,
      seconds: Double,
      trace: Boolean,
      lakeSeed: Long,
      querySeed: Long,
  )

  val WorkDir: Path = Paths.get(".bench_build", "perfbench")
  val RecordFile: Path = Paths.get("perfbench", "counters.json")
  val LocalRecordFile: Path = WorkDir.resolve("counters.json")

  /** Untimed warm-up before the timed passes, until JIT compilation of the
    * search path settles. Spark's own code keeps speeding up for longer.
    */
  def warmSeconds(kind: Kind): Double = kind match {
    case Kind.Spark => 10.0
    case _          => 5.0
  }

  def usage: String =
    "usage: --workload <" + Workload.all.map(_.name).mkString("|") +
      "> --seed <n> --seconds <s> --trace <0|1> [--lake-seed <n>] [--query-seed <n>]"

  def parse(argv: Seq[String]): Either[String, Args] = {
    if (argv.length % 2 != 0) return Left("flags take one value each")
    val kv = argv.grouped(2).map(p => p(0) -> p(1)).toMap
    val known = Set("--workload", "--seed", "--seconds", "--trace", "--lake-seed", "--query-seed")
    kv.keys.find(k => !known(k)) match {
      case Some(k) => return Left(s"unknown flag $k")
      case None =>
    }
    def long(k: String): Either[String, Option[Long]] = kv.get(k) match {
      case None => Right(None)
      case Some(v) => v.toLongOption.toRight(s"$k needs an integer, got '$v'").map(Some(_))
    }
    for {
      name <- kv.get("--workload").toRight("--workload is required")
      w <- Workload.byName(name).toRight(s"unknown workload '$name'")
      seed <- long("--seed").map(_.getOrElse(0L))
      secs <- kv.get("--seconds").map(s => s.toDoubleOption.filter(_ > 0).toRight(s"bad --seconds '$s'"))
        .getOrElse(Right(10.0))
      trace <- kv.getOrElse("--trace", "0") match {
        case "0" => Right(false)
        case "1" => Right(true)
        case t   => Left(s"--trace must be 0 or 1, got '$t'")
      }
      lake <- long("--lake-seed")
      query <- long("--query-seed")
    } yield Args(w, seed, secs, trace,
      lake.getOrElse(w.lake.seed), query.getOrElse(w.querySeed))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toSeq) match {
      case Right(a) => a
      case Left(err) =>
        Console.err.println(s"perfbench: $err\n$usage")
        sys.exit(2)
    }
    Files.createDirectories(WorkDir)
    val report = new Report(args)
    if (args.trace) TraceRun.run(args, report) else EndToEndRun.run(args, report)
    println(report.resultLine)
    System.out.flush()
    sys.exit(0)
  }

  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def timed(body: => Unit): Double = { val t0 = System.nanoTime(); body; secondsSince(t0) }
}

/** Collects metrics and problems; renders the readable report and the
  * result line.
  */
final class Report(args: Main.Args) {
  private val metrics = ListMap.newBuilder[String, (Double, String)]
  private var names = Set.empty[String]
  private var attempted = 0L
  private var failed = 0L
  private var correct = true

  println(s"workload ${args.workload.name}: lake seed ${args.lakeSeed}, query seed ${args.querySeed}, " +
    s"call-order seed ${args.seed}, ${args.seconds} s, trace=${if (args.trace) 1 else 0}")

  def metric(name: String, value: Double, unit: String, note: String = ""): Unit = {
    Stats.requireName(name)
    require(!names(name), s"metric $name reported twice")
    require(!value.isNaN && !value.isInfinite, s"metric $name is not a number: $value")
    names += name
    metrics += name -> (value, unit)
    println(f"  $name%-32s $value%16.6f $unit%-10s $note")
  }

  def note(line: String): Unit = println("  " + line)

  /** A correctness failure: the run's answers cannot be trusted. */
  def fail(problem: String): Unit = { correct = false; println("  FAIL " + problem) }

  /** A deterministic counter differs from an earlier run. */
  def flag(problem: String): Unit = println("  FLAG " + problem)

  def searches(attempted: Long, failed: Long): Unit = {
    this.attempted += attempted
    this.failed += failed
    note(s"searches attempted=$attempted failed=$failed error_rate=${if (attempted == 0) 0.0 else failed.toDouble / attempted}")
  }

  def resultLine: String = Json.write(ListMap(
    "correct" -> (correct && failed == 0 && attempted > 0),
    "attempted" -> math.max(1L, attempted),
    "failed" -> failed,
    "metrics" -> ListMap.from(metrics.result().map { case (n, (v, u)) =>
      n -> ListMap("value" -> v, "unit" -> u)
    }),
  ))
}

/** Deterministic counters recorded per (workload, lake seed, query seed):
  * `perfbench/counters.json` holds the committed record, and each run
  * adds what it saw to `.bench_build/perfbench/counters.json`, so later
  * runs in the same checkout are compared against it.
  */
object CounterRecord {
  def key(a: Main.Args): String = s"${a.workload.name}/lake=${a.lakeSeed}/query=${a.querySeed}"

  private def read(p: Path): Map[String, Map[String, Long]] =
    if (!Files.exists(p)) Map.empty
    else Json.parse(Files.readString(p)) match {
      case m: Map[_, _] => m.map { case (k, v) =>
        k.toString -> v.asInstanceOf[Map[String, Any]].map { case (c, n) => c -> n.asInstanceOf[Long] }
      }
      case other => throw new IllegalStateException(s"$p: expected an object, got $other")
    }

  /** Compare with every earlier record of this key; remember a new one. */
  def check(a: Main.Args, counters: Map[String, Long], report: Report): Unit = {
    val k = key(a)
    val local = read(Main.LocalRecordFile)
    Seq(Main.RecordFile -> read(Main.RecordFile), Main.LocalRecordFile -> local).foreach { case (file, rec) =>
      rec.get(k).foreach { old =>
        val drift = (old.keySet ++ counters.keySet).toSeq.sorted.filter(c => old.get(c) != counters.get(c))
        if (drift.isEmpty) report.note(s"counters match $file")
        else drift.foreach { c =>
          report.flag(s"counter $c drifted from $file: ${old.getOrElse(c, "absent")} -> ${counters.getOrElse(c, "absent")}")
        }
      }
    }
    if (!local.contains(k)) {
      val next = (local + (k -> counters)).map { case (kk, v) => kk -> ListMap.from(v.toSeq.sorted) }
      Files.writeString(Main.LocalRecordFile, Json.write(ListMap.from(next.toSeq.sortBy(_._1))) + "\n")
    }
  }

  def show(counters: Map[String, Long]): String =
    counters.toSeq.sorted.map { case (k, v) => s"$k=$v" }.mkString(" ")
}
