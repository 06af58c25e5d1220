package repro.encoding

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Builder, PairwiseHist}
import repro.gd.{CategoricalCol, ColumnSpec, NumericCol}

import scala.util.Random

class CodecSpec extends AnyFunSuite {

  private def buildSample(): PairwiseHist = {
    val rng = new Random(101)
    val n = 6000
    val sample = Array(
      Array.fill(n)(math.rint(rng.nextDouble() * 2000)),
      Array.tabulate(n)(r => if (r % 9 == 0) Double.NaN else math.rint(math.pow(rng.nextDouble(), 2) * 500)),
      Array.fill(n)(math.rint(rng.nextDouble() * 6)) // small-cardinality
    )
    val specs = Array(
      ColumnSpec("x", NumericCol(10, -50), 0),
      ColumnSpec("y", NumericCol(1, 0), n / 9L),
      ColumnSpec("cat", CategoricalCol(Array("a", "b", "c", "d", "e", "f", "g")), 0)
    )
    Builder.build(sample, specs, 60000L, 60, 0.001)
  }

  test("encode/decode roundtrips the complete synopsis") {
    val ph = buildSample()
    val bytes = Codec.encode(ph)
    val back = Codec.decode(bytes)

    assert(back.n == ph.n && back.nS == ph.nS && back.m == ph.m && back.alpha == ph.alpha)
    assert(back.d == ph.d)
    assert(back.nullCounts.toSeq == ph.nullCounts.toSeq)
    assert(back.specs.map(_.name).toSeq == ph.specs.map(_.name).toSeq)

    for (i <- 0 until ph.d) {
      val a = ph.hist1d(i).meta
      val b = back.hist1d(i).meta
      assert(a.edges.toSeq == b.edges.toSeq, s"col $i edges")
      assert(a.vMin.toSeq == b.vMin.toSeq, s"col $i vMin")
      assert(a.vMax.toSeq == b.vMax.toSeq, s"col $i vMax")
      assert(a.unique.toSeq == b.unique.toSeq, s"col $i unique")
      assert(a.counts.toSeq == b.counts.toSeq, s"col $i counts")
    }
    assert(back.hist2d.keySet == ph.hist2d.keySet)
    for ((k, a) <- ph.hist2d) {
      val b = back.hist2d(k)
      assert(a.counts.map(_.toSeq).toSeq == b.counts.map(_.toSeq).toSeq, s"pair $k counts")
      assert(a.metaI.edges.toSeq == b.metaI.edges.toSeq)
      assert(a.metaJ.edges.toSeq == b.metaJ.edges.toSeq)
      assert(a.metaI.unique.toSeq == b.metaI.unique.toSeq)
      // Marginal counts are rederived from the matrix.
      assert(a.metaI.counts.toSeq == b.metaI.counts.toSeq)
      assert(a.metaJ.counts.toSeq == b.metaJ.counts.toSeq)
    }
  }

  test("decoded specs preserve the literal transforms") {
    val ph = buildSample()
    val back = Codec.decode(Codec.encode(ph))
    assert(back.specs(0).toGd(12.3) == ph.specs(0).toGd(12.3))
    assert(back.specs(2).toGd("c") == ph.specs(2).toGd("c"))
    assert(back.specs(0).fromGd(173.0) == ph.specs(0).fromGd(173.0))
  }

  test("synopsis is small: sub-100KB for a 3-column sample") {
    val ph = buildSample()
    val size = Codec.sizeBytes(ph)
    assert(size < 100 * 1024, s"size=$size")
  }

  test("measure breakdown sums close to the true encoded size") {
    val ph = buildSample()
    val b = Codec.measure(ph)
    val actual = Codec.encode(ph).length
    // measure records the section sizes of the one encoder.
    assert(b.total == actual, s"${b.total} vs $actual")
    assert(b.params > 0 && b.hist1d > 0 && b.hist2d > 0 && b.counts > 0)
  }

  test("dense counts respect the Eq 12 bit bound") {
    val ph = buildSample()
    val b = Codec.measure(ph)
    // Upper bound: every histogram stored densely with l_h bits (Eq 12/13)
    // plus per-histogram headers.
    def lh(mx: Long): Long = math.max(1, 64 - java.lang.Long.numberOfLeadingZeros(mx))
    val denseBound = ph.hist1d.map { h =>
      (h.meta.counts.length.toLong * lh(h.meta.counts.max) + 7) / 8 + 12
    }.sum + ph.hist2d.values.map { h =>
      val flat = h.counts.flatten
      (flat.length.toLong * lh(math.max(1, flat.max)) + 7) / 8 + 12
    }.sum
    assert(b.counts <= denseBound, s"${b.counts} > $denseBound")
  }

  test("sparse matrices win on mostly-zero grids") {
    // Construct an artificial diagonal-heavy synopsis via correlated data.
    val rng = new Random(103)
    val n = 8000
    val xi = Array.fill(n)(math.rint(rng.nextDouble() * 1000))
    val xj = xi.map(v => math.rint(v + rng.nextDouble() * 5))
    val sample = Array(xi, xj)
    val specs = Array(ColumnSpec("a", NumericCol(1, 0), 0), ColumnSpec("b", NumericCol(1, 0), 0))
    val ph = Builder.build(sample, specs, n.toLong, 80, 0.001)
    val pairH = ph.hist2d((1, 0))
    val flat = pairH.counts.flatten
    val zeroFrac = flat.count(_ == 0L).toDouble / flat.length
    if (zeroFrac > 0.5) {
      // Roundtrip still exact under the sparse path.
      val back = Codec.decode(Codec.encode(ph))
      assert(back.hist2d((1, 0)).counts.map(_.toSeq).toSeq == pairH.counts.map(_.toSeq).toSeq)
    }
    succeed
  }

  test("varlong roundtrip") {
    val bos = new java.io.ByteArrayOutputStream()
    val out = new java.io.DataOutputStream(bos)
    val vals = Seq(0L, 1L, 127L, 128L, 300L, 1L << 20, Long.MaxValue)
    vals.foreach(Codec.writeVarLong(out, _))
    val in = new java.io.DataInputStream(new java.io.ByteArrayInputStream(bos.toByteArray))
    vals.foreach(v => assert(Codec.readVarLong(in) == v))
  }
}
