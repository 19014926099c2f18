package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.immutable.ArraySeq
import scala.util.Random

class HierarchicalGridSpec extends AnyFunSuite {

  test("widthAt halves per level") {
    val g = new HierarchicalGrid(2, 3, extent = 2.0)
    assert(g.widthAt(1) === 1.0)
    assert(g.widthAt(2) === 0.5)
    assert(g.widthAt(3) === 0.25)
  }

  test("coordsAt places a point in the right cell") {
    val g = new HierarchicalGrid(2, 2, extent = 2.0)
    assert(g.coordsAt(Array(0.1, 1.9), 1).toSeq == Seq(0, 1))
    assert(g.coordsAt(Array(0.1, 1.9), 2).toSeq == Seq(0, 3))
  }

  test("coordsAt clamps out-of-range values") {
    val g = new HierarchicalGrid(1, 2, extent = 2.0)
    assert(g.coordsAt(Array(2.5), 2).toSeq == Seq(3))
    assert(g.coordsAt(Array(-0.5), 2).toSeq == Seq(0))
  }

  test("insert materializes the full path and stores the payload at the leaf") {
    val g = new HierarchicalGrid(2, 3)
    val leaf = g.insert(Array(0.3, 0.7), payload = 42)
    assert(leaf.isLeaf)
    assert(leaf.payloads.toSeq == Seq(42))
    assert(g.root.children.size == 1)
  }

  test("insert with payload -1 leaves the leaf payload empty (HG_SV style)") {
    val g = new HierarchicalGrid(2, 2)
    val leaf = g.insert(Array(0.3, 0.7), payload = -1)
    assert(leaf.payloads.isEmpty)
  }

  test("only non-empty cells are materialized") {
    val g = new HierarchicalGrid(2, 2)
    g.insert(Array(0.1, 0.1), 0)
    g.insert(Array(1.9, 1.9), 1)
    // two leaves, two level-1 cells, nothing else
    assert(g.leafCells.size == 2)
    assert(g.root.children.size == 2)
  }

  test("same-cell vectors share one leaf") {
    val g = new HierarchicalGrid(2, 2)
    val a = g.insert(Array(0.10, 0.10), 0)
    val b = g.insert(Array(0.12, 0.11), 1)
    assert(a eq b)
    assert(a.payloads.toSeq == Seq(0, 1))
  }

  test("node box bounds contain the inserted vector") {
    val rng = new Random(1)
    val g = new HierarchicalGrid(3, 4)
    (1 to 200).foreach { i =>
      val v = Array.fill(3)(rng.nextDouble() * 2.0)
      val leaf = g.insert(v, i)
      (0 until 3).foreach { d =>
        assert(leaf.lo(d) <= v(d) + 1e-12 && v(d) <= leaf.hi(d) + 1e-12)
      }
    }
  }

  test("subtreePayloads collects everything under a node") {
    val g = new HierarchicalGrid(1, 2)
    g.insert(Array(0.1), 1)
    g.insert(Array(0.4), 2)
    g.insert(Array(1.5), 3)
    assert(g.root.subtreePayloads.toSet == Set(1, 2, 3))
    val leftTop = g.root.children(ArraySeq(0))
    assert(leftTop.subtreePayloads.toSet == Set(1, 2))
  }

  test("leaves iterator returns exactly the leaf level") {
    val g = new HierarchicalGrid(2, 3)
    (1 to 50).foreach { i =>
      val rng = new Random(i)
      g.insert(Array(rng.nextDouble() * 2, rng.nextDouble() * 2), i)
    }
    assert(g.leafCells.forall(_.level == 3))
  }

  test("level count of cells per dim is 2^level") {
    val g = new HierarchicalGrid(1, 3, extent = 2.0)
    // extremes map to cell 0 and 2^3 - 1
    assert(g.coordsAt(Array(0.0), 3)(0) == 0)
    assert(g.coordsAt(Array(1.999), 3)(0) == 7)
  }

  test("bad shapes rejected") {
    intercept[IllegalArgumentException] { new HierarchicalGrid(0, 2) }
    intercept[IllegalArgumentException] { new HierarchicalGrid(2, 0) }
  }
}
