package repro.core

import java.util.zip.CRC32

import org.scalatest.funsuite.AnyFunSuite
import repro.encoding.Codec
import repro.gd.{ColumnSpec, NumericCol}

import scala.util.Random

/** Pins the encoded bytes of [[Builder.build]] on fixed inputs. The length
  * and CRC32 were recorded from the row-level builder that the weighted
  * refinement core replaced; any change to Algorithm 1, to the synopsis
  * layout or to the codec shows up here as a different pin.
  *
  * The inputs are drawn with `scala.util.Random` (not Spark's `rand`, which
  * depends on the partition count) and cover uniform, skewed, bimodal and
  * correlated columns, about 10 % nulls, a constant column, an all-null
  * column, and GD-style seeds (multiples of a power of two, more of them
  * than Algorithm 1 line 4 keeps) on one column.
  */
class GoldenSynopsisSpec extends AnyFunSuite {

  private val Rows = 6000
  private val M = 60L
  private val Alpha = 0.001

  private lazy val sample: Array[Array[Double]] = {
    val rng = new Random(20240917)
    def maybeNull(v: => Double): Double = if (rng.nextDouble() < 0.1) Double.NaN else v
    val uniform = Array.fill(Rows)(math.rint(rng.nextDouble() * 1000))
    val skewed = Array.fill(Rows)(maybeNull(math.rint(math.pow(rng.nextDouble(), 3) * 5000)))
    val correlated = Array.tabulate(Rows)(r => maybeNull(math.rint(uniform(r) * 0.5 + rng.nextDouble() * 20)))
    val bimodal = Array.fill(Rows)(
      if (rng.nextBoolean()) math.rint(rng.nextGaussian() * 15 + 100) else math.rint(rng.nextGaussian() * 40 + 800)
    )
    val constant = Array.fill(Rows)(7.0)
    val allNull = Array.fill(Rows)(Double.NaN)
    Array(uniform, skewed, correlated, bimodal, constant, allNull)
  }

  private lazy val specs: Array[ColumnSpec] = sample.indices.map { c =>
    ColumnSpec(s"c$c", NumericCol(1, 0), sample(c).count(_.isNaN).toLong)
  }.toArray

  /** (encoded length, CRC32 of the encoded bytes). */
  private def pin(initialEdges: Map[Int, Array[Double]]): (Int, Long) = {
    val bytes = Codec.encode(Builder.build(sample, specs, Rows * 20L, M, Alpha, initialEdges))
    val crc = new CRC32
    crc.update(bytes)
    (bytes.length, crc.getValue)
  }

  test("unseeded build encodes to the pinned bytes") {
    assert(pin(Map.empty) == ((16432, 3034681883L)))
  }

  test("GD-seeded build encodes to the pinned bytes") {
    // 157 seeds against a cap of ceil(Ns/M) = 100: exercises the downsampling.
    val seeds = Array.tabulate(157)(q => q * 32.0)
    assert(pin(Map(1 -> seeds)) == ((16557, 849901497L)))
  }
}
