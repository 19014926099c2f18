package pexbench

import java.lang.management.ManagementFactory
import scala.collection.mutable

/** In-memory span recorder for the traced run.
  *
  * A span covers one call into a layer: its name, start and end
  * (`System.nanoTime`), the span that caused it, the request it belongs to
  * (`trace`: one search, or one set-up), and the bytes the calling thread
  * allocated inside it. Spans stay in memory until [[toJson]] at the end.
  */
final class Spans {
  import Spans._

  private val buf   = mutable.ArrayBuffer.empty[Span]
  private val stack = mutable.Stack.empty[Int]
  private var trace = 0L

  /** Start a new request; spans recorded until the next call share its id. */
  def newTrace(): Unit = trace += 1

  def apply[A](name: String)(body: => A): A = {
    val id = buf.length
    val parent = if (stack.isEmpty) -1 else stack.top
    buf += null
    stack.push(id)
    val a0 = allocated()
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      val a1 = allocated()
      stack.pop()
      buf(id) = Span(id, parent, trace, name, t0, t1, a1 - a0)
    }
  }

  def all: IndexedSeq[Span] = buf.toIndexedSeq

  /** Span duration minus the part of it covered by its child spans. */
  def selfNanos(name: String): Long = {
    val childTime = mutable.HashMap.empty[Int, Long].withDefaultValue(0L)
    buf.foreach(s => if (s.parent >= 0) childTime(s.parent) += s.nanos)
    buf.iterator.filter(_.name == name).map(s => s.nanos - childTime(s.id)).sum
  }

  def toJson: Seq[Map[String, Any]] = buf.toSeq.map { s =>
    Map("id" -> s.id, "parent" -> s.parent, "trace" -> s.trace, "name" -> s.name,
      "start_ns" -> s.start, "end_ns" -> s.end, "alloc_bytes" -> s.allocBytes)
  }
}

object Spans {
  final case class Span(id: Int, parent: Int, trace: Long, name: String,
                        start: Long, end: Long, allocBytes: Long) {
    def nanos: Long = end - start
  }

  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def allocated(): Long = threads.getCurrentThreadAllocatedBytes

  /** Total collection time of every garbage collector so far, in ns. */
  def gcNanos(): Long = {
    var ms = 0L
    ManagementFactory.getGarbageCollectorMXBeans.forEach(b => ms += math.max(0L, b.getCollectionTime))
    ms * 1000000L
  }
}
