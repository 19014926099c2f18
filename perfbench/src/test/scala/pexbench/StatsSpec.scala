package pexbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("median of odd and even sample counts") {
    assert(Stats.median(Seq(3.0)) == 3.0)
    assert(Stats.median(Seq(5.0, 1.0, 3.0)) == 3.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assertThrows[IllegalArgumentException](Stats.median(Seq.empty))
  }

  test("a pass at each call's latency: rate and median search latency") {
    // a batch of 10 searches taking 400 ms, and two single searches
    val calls = Seq(10 -> 400.0, 1 -> 50.0, 1 -> 550.0)
    assert(math.abs(Stats.passRate(calls) - 12.0) < 1e-9)
    assert(Stats.passMedianMs(calls) == 400.0)
    assert(Stats.passMedianMs(Seq(1 -> 10.0, 1 -> 30.0)) == 20.0)
  }

  test("a percentile needs at least ten samples above it") {
    val xs99 = (1 to 99).map(_.toDouble)
    val xs100 = (1 to 100).map(_.toDouble)
    assert(Stats.percentile(xs99, 0.9).isEmpty)
    assert(Stats.percentile(xs100, 0.9).contains(90.0))
    assert(xs100.count(_ > 90.0) == Stats.MinBeyond)
    assert(Stats.percentile((1 to 19).map(_.toDouble), 0.5).isEmpty)
    assert(Stats.percentile((1 to 20).map(_.toDouble), 0.5).contains(10.0))
    assert(Stats.percentile(Seq.empty, 0.5).isEmpty)
  }

  test("the sample count a percentile needs: 20 for p50, 100 for p90, 1000 for p99") {
    Seq(0.5 -> 20, 0.9 -> 100, 0.99 -> 1000).foreach { case (p, n) =>
      assert(Stats.percentile((1 to n).map(_.toDouble), p).isDefined, s"p=$p n=$n")
      assert(Stats.percentile((1 until n).map(_.toDouble), p).isEmpty, s"p=$p n=${n - 1}")
    }
  }

  test("metric names are letters, digits, '_', '.' and '-'") {
    Seq("setup_s", "queries_per_s", "block.match_share", "ooc.load_ns", "a-b", "9x")
      .foreach(n => assert(Stats.validName(n), n))
    Seq("", "has space", "p90%", "a/b", "é", "x\n").foreach(n => assert(!Stats.validName(n), n))
    assertThrows[IllegalArgumentException](Stats.requireName("bad name"))
  }
}
