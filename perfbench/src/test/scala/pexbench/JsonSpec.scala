package pexbench

import scala.collection.immutable.ListMap
import org.scalatest.funsuite.AnyFunSuite

class JsonSpec extends AnyFunSuite {

  test("result line round-trips with its key order") {
    val result = ListMap(
      "correct" -> true,
      "attempted" -> 318L,
      "failed" -> 0L,
      "metrics" -> ListMap(
        "setup_s" -> ListMap("value" -> 0.4686587, "unit" -> "s"),
        "queries_per_s" -> ListMap("value" -> 26.456601382635355, "unit" -> "1/s"),
        "block.ns" -> ListMap("value" -> 6.40410061875e7, "unit" -> "ns/search"),
      ))
    val text = Json.write(result)
    assert(text.startsWith("""{"correct":true,"attempted":318,"failed":0,"metrics":{"setup_s":"""))
    val back = Json.parse(text)
    assert(back == result)
    assert(back.asInstanceOf[Map[String, Any]].keys.toSeq == Seq("correct", "attempted", "failed", "metrics"))
    assert(Json.write(back) == text)
  }

  test("doubles keep every digit") {
    Seq(0.1, 1.0 / 3, 12345.678901234567, 1e-9, 6.02e23, -2.5).foreach { d =>
      assert(Json.parse(Json.write(d)) == d)
    }
  }

  test("strings, arrays and null") {
    val v = Seq("a\"b\\c\nd\u0001", Seq(1L, 2L), None, false)
    assert(Json.parse(Json.write(v)) == v)
    assert(Json.parse(""" { "k" : [ 1 , 2.5e1 , "A" ] } """) == Map("k" -> Seq(1L, 25.0, "A")))
  }

  test("malformed JSON is rejected") {
    Seq("", "{", """{"a":1,}""", "[1 2]", "tru", "1 1").foreach { s =>
      assertThrows[Exception](Json.parse(s))
    }
  }

  test("non-finite numbers cannot be written") {
    assertThrows[IllegalArgumentException](Json.write(Double.NaN))
    assertThrows[IllegalArgumentException](Json.write(Double.PositiveInfinity))
  }
}
