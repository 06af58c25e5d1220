package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.gd.ColumnSpec

import scala.collection.mutable.ArrayBuffer

/** Distributed PairwiseHist construction (the `distributed_dataflow` path).
  *
  * The heavy pass over the data is DataFrame aggregations, partially
  * aggregated per partition by Catalyst and then combined: null counts, the
  * value-level histogram `(column, value) -> count`, and pair statistics
  * `(pair, vi, vj) -> count` gathered in bounded batches of column pairs.
  * Those counts feed the one refinement core in [[Builder]] on the driver,
  * so the synopsis is bit-identical to [[Builder.build]] on the same sample
  * (verified by DistributedBuilderSpec).
  */
object DistributedBuilder {

  /** Max collected (pair, vi, vj) rows per batch job. */
  private val PairBatchRows = 2000000L

  def build(
      gdSample: DataFrame,
      specs: Array[ColumnSpec],
      n: Long,
      m: Long,
      alpha: Double,
      initialEdges: Map[Int, Array[Double]] = Map.empty
  ): PairwiseHist = {
    val d = specs.length
    val cols = gdSample.columns
    require(cols.length == d, s"df has ${cols.length} columns, specs $d")
    val nS = gdSample.count()
    gdSample.cache()

    // Null counts: one aggregation.
    val nullRow = gdSample
      .agg(
        sum(when(col(cols(0)).isNull, 1L).otherwise(0L)).as("n0"),
        cols.zipWithIndex.drop(1).map { case (c, i) =>
          sum(when(col(c).isNull, 1L).otherwise(0L)).as(s"n$i")
        }.toIndexedSeq: _*
      )
      .collect()(0)
    val nullCounts = Array.tabulate(d)(i => Option(nullRow.getAs[Long](s"n$i")).getOrElse(0L))

    // (column, value) -> count: the 1-d sufficient statistic, one job.
    val stackExpr = s"stack($d, ${cols.zipWithIndex.map { case (c, i) => s"$i, `$c`" }.mkString(", ")}) as (col, value)"
    val valueCounts = gdSample
      .selectExpr(stackExpr)
      .filter(col("value").isNotNull)
      .groupBy(col("col"), col("value"))
      .count()
      .collect()

    val perCol = Array.fill(d)(ArrayBuffer.empty[(Double, Long)])
    valueCounts.foreach { r =>
      perCol(r.getInt(0)) += ((r.getLong(1).toDouble, r.getLong(2)))
    }
    val sorted = perCol.map(_.sortBy(_._1).toArray)

    val hist1d = Array.tabulate(d) { i =>
      Hist1D(i, Builder.wBuild1D(sorted(i).map(_._1), sorted(i).map(_._2), initialEdges.get(i), nS, m, alpha))
    }

    // Pair batches sized by the expected number of distinct (vi, vj) rows.
    val uCol = sorted.map(_.length.toLong)
    val allPairs = for { i <- 1 until d; j <- 0 until i } yield (i, j)
    val batches = ArrayBuffer.empty[ArrayBuffer[(Int, Int)]]
    var cur = ArrayBuffer.empty[(Int, Int)]
    var curRows = 0L
    allPairs.foreach { case (i, j) =>
      val est = math.min(nS, uCol(i) * uCol(j))
      if (cur.nonEmpty && (curRows + est > PairBatchRows || cur.length >= 64)) {
        batches += cur; cur = ArrayBuffer.empty; curRows = 0L
      }
      cur += ((i, j)); curRows += est
    }
    if (cur.nonEmpty) batches += cur

    val hist2d = scala.collection.mutable.Map.empty[(Int, Int), Hist2D]
    batches.foreach { batch =>
      val p = batch.length
      val entries = batch.zipWithIndex
        .map { case ((i, j), pid) => s"$pid, `${cols(i)}`, `${cols(j)}`" }
        .mkString(", ")
      val pairRows = gdSample
        .selectExpr(s"stack($p, $entries) as (pair, vi, vj)")
        .filter(col("vi").isNotNull && col("vj").isNotNull)
        .groupBy(col("pair"), col("vi"), col("vj"))
        .count()
        .collect()
      val byPair = Array.fill(p)(ArrayBuffer.empty[(Double, Double, Long)])
      pairRows.foreach { r =>
        byPair(r.getInt(0)) += ((r.getLong(1).toDouble, r.getLong(2).toDouble, r.getLong(3)))
      }
      batch.zipWithIndex.foreach { case ((i, j), pid) =>
        hist2d((i, j)) = Builder.buildPair(i, j, byPair(pid).toArray, hist1d, m, alpha)
      }
    }

    gdSample.unpersist()
    PairwiseHist(n, nS, m, alpha, specs, hist1d, hist2d.toMap, nullCounts)
  }
}
