package repro.spark

import repro.{SparkSpec, TestData}
import repro.baselines.NaiveSearch
import repro.core.{PexesoIndex, PivotSelection}

class SparkPexesoSpec extends SparkSpec {

  test("distributed search equals the brute-force reference") {
    for (seed <- 1L to 3L) {
      val (cols, query) = TestData.searchInstance(seed, nCols = 10, colSize = 12, qSize = 8)
      val pivots = PivotSelection.pcaPivots(cols.flatMap(_.vectors), 3)
      for (tau <- Seq(0.2, 0.5); t <- Seq(0.3, 0.6)) {
        val got = SparkPexeso.search(spark, cols, query, pivots, tau, t)
        val want = NaiveSearch.search(cols, query, tau, t).joinable
        assert(got == want, s"seed=$seed tau=$tau T=$t")
      }
    }
  }

  test("distributed search equals the in-memory core index") {
    val (cols, query) = TestData.searchInstance(5, nCols = 12, colSize = 15, qSize = 10)
    val index = PexesoIndex.build(cols, 3, 3)
    val pivots = index.pivots
    val got = SparkPexeso.search(spark, cols, query, pivots, 0.4, 0.5)
    assert(got == index.search(query, 0.4, 0.5).joinable)
  }

  test("matchCounts returns exact distinct-match counts per column") {
    val (cols, query) = TestData.searchInstance(6, nCols = 8, colSize = 10, qSize = 6)
    val pivots = PivotSelection.pcaPivots(cols.flatMap(_.vectors), 2)
    val tau = 0.4
    val counts = SparkPexeso
      .matchCounts(SparkPexeso.lakeToDF(spark, cols), SparkPexeso.queryToDF(spark, query), pivots, tau)
      .collect()
      .map(r => r.getInt(0) -> r.getLong(1))
      .toMap
    cols.foreach { c =>
      val want = query.count(q =>
        c.vectors.exists(v => repro.embed.VectorOps.euclidean(q, v) <= tau)).toLong
      assert(counts.getOrElse(c.colId, 0L) == want, s"col=${c.colId}")
    }
  }

  test("blocking level does not affect the result (exactness across levels)") {
    val (cols, query) = TestData.searchInstance(7, nCols = 8, colSize = 10, qSize = 6)
    val pivots = PivotSelection.pcaPivots(cols.flatMap(_.vectors), 2)
    val want = NaiveSearch.search(cols, query, 0.4, 0.5).joinable
    for (level <- 1 to 4) {
      assert(SparkPexeso.search(spark, cols, query, pivots, 0.4, 0.5, level) == want,
        s"level=$level")
    }
    // the cells are the core grid's, which has at least one level
    intercept[IllegalArgumentException] {
      SparkPexeso.search(spark, cols, query, pivots, 0.4, 0.5, level = 0)
    }
  }

  test("lakeToDF shape") {
    val (cols, _) = TestData.searchInstance(8, nCols = 3, colSize = 4)
    val df = SparkPexeso.lakeToDF(spark, cols)
    assert(df.columns.toSeq == Seq("col_id", "row_id", "vec"))
    assert(df.count() == 12)
  }
}
