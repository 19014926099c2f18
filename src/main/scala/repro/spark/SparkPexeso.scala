package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{ColumnVectors, HierarchicalGrid, PivotSet, PivotSpace, Verify}
import repro.embed.VectorOps

/** Distributed PEXESO as a Catalyst dataflow (DESIGN.md §2.4).
  *
  * The block-and-verify strategy mapped onto DataFrame operators:
  *
  *   1. repository vectors: `(col_id, row_id, vec)` rows; pivot mapping is
  *      a UDF over a broadcast pivot set; each vector keys to its
  *      `HierarchicalGrid.coordsAt` cell at one level (`2^level` cells per
  *      pivot dimension, `level ≥ 1`);
  *   2. '''blocking''' = an equi-join on the cell id between the target
  *      vectors and the query vectors exploded to every cell overlapping
  *      their square query region `SQR(q', τ)` (Lemma 3 as join pruning);
  *   3. '''verification''' = Lemma 1 pivot filtering, then an exact
  *      distance predicate on the surviving pairs;
  *   4. '''joinability''' = `groupBy(col_id).agg(countDistinct(q_id))`
  *      compared to `T·|Q|`.
  *
  * Exact: returns the same joinable set as the in-memory core (asserted in
  * tests against NaiveSearch and `core.Pexeso`).
  */
object SparkPexeso {

  /** Repository columns → `(col_id, row_id, vec)` DataFrame. */
  def lakeToDF(spark: SparkSession, columns: Seq[ColumnVectors]): DataFrame = {
    import spark.implicits._
    columns.flatMap { c =>
      c.vectors.zipWithIndex.map { case (v, i) => (c.colId, i.toLong, v.toSeq) }
    }.toDF("col_id", "row_id", "vec")
  }

  /** Query vectors → `(q_id, vec)` DataFrame. */
  def queryToDF(spark: SparkSession, query: Array[Array[Double]]): DataFrame = {
    import spark.implicits._
    query.toSeq.zipWithIndex.map { case (v, i) => (i, v.toSeq) }.toDF("q_id", "vec")
  }

  /** Per-column joinability counts: `(col_id, matched)` where `matched` is
    * the number of distinct query vectors with ≥1 match in the column.
    */
  def matchCounts(
      lakeDf: DataFrame,
      queryDf: DataFrame,
      pivots: PivotSet,
      tau: Double,
      level: Int = 3,
  ): DataFrame = {
    val spark = lakeDf.sparkSession
    val bPivots = spark.sparkContext.broadcast(pivots)
    // the core grid's cells at `level`; coordinates past its extent clamp
    // into the border cells alike for targets and queries, so none loses a match
    val grid = new HierarchicalGrid(pivots.numPivots, level)
    def cellId(coords: collection.Seq[Int]): String = coords.mkString(",")

    val mapVec = udf { (v: Seq[Double]) => bPivots.value.map(v.toArray).toSeq }
    val cellU = udf { (m: Seq[Double]) => cellId(grid.coordsAt(m.toArray, level)) }
    // every cell intersecting SQR(m, τ): per dimension, the cells from
    // that of m − τ to that of m + τ
    val qCellsU = udf { (m: Seq[Double]) =>
      val lo = grid.coordsAt(m.map(_ - tau).toArray, level)
      val hi = grid.coordsAt(m.map(_ + tau).toArray, level)
      lo.indices.foldLeft(Seq(Seq.empty[Int])) { (acc, i) =>
        acc.flatMap(prefix => (lo(i) to hi(i)).map(prefix :+ _))
      }.map(cellId)
    }
    val pivotFiltered = udf { (qm: Seq[Double], xm: Seq[Double]) =>
      PivotSpace.filteredByPivots(qm.toArray, xm.toArray, tau)
    }
    val distLe = udf { (a: Seq[Double], b: Seq[Double]) =>
      VectorOps.euclidean(a.toArray, b.toArray) <= tau
    }

    val targets = lakeDf
      .withColumn("mapped", mapVec(col("vec")))
      .withColumn("cell", cellU(col("mapped")))

    val queries = queryDf
      .withColumn("q_mapped", mapVec(col("vec")))
      .withColumn("cell", explode(qCellsU(col("q_mapped"))))
      .select(col("q_id"), col("vec").as("q_vec"), col("q_mapped"), col("cell"))

    queries
      .join(targets, "cell")                                   // blocking
      .filter(!pivotFiltered(col("q_mapped"), col("mapped")))  // Lemma 1
      .filter(distLe(col("q_vec"), col("vec")))                // exact verify
      .groupBy(col("col_id"))
      .agg(countDistinct(col("q_id")).as("matched"))
  }

  /** Full joinable-column search; returns the joinable `col_id` set. */
  def search(
      spark: SparkSession,
      columns: Seq[ColumnVectors],
      query: Array[Array[Double]],
      pivots: PivotSet,
      tau: Double,
      tFrac: Double,
      level: Int = 3,
  ): Set[Int] = {
    val tAbs = Verify.absThreshold(tFrac, query.length)
    matchCounts(lakeToDF(spark, columns), queryToDF(spark, query), pivots, tau, level)
      .filter(col("matched") >= tAbs)
      .collect()
      .map(_.getInt(0))
      .toSet
  }
}
