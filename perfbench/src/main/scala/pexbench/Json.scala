package pexbench

/** Minimal JSON for the result line, the span dump and the recorded
  * counters. Values are `Map[String, Any]` (insertion-ordered), `Seq[Any]`,
  * `String`, `Boolean`, `Long`/`Int` and `Double`; `null` reads as `None`.
  * Integral numbers read back as `Long`, all others as `Double`.
  */
object Json {

  def write(v: Any): String = { val sb = new StringBuilder; put(sb, v); sb.result() }

  private def put(sb: StringBuilder, v: Any): Unit = v match {
    case None | null  => sb ++= "null"
    case b: Boolean   => sb ++= b.toString
    case i: Int       => sb ++= i.toString
    case l: Long      => sb ++= l.toString
    case d: Double    =>
      require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d")
      sb ++= d.toString
    case s: String    => str(sb, s)
    case m: collection.Map[_, _] =>
      sb += '{'
      var first = true
      m.foreach { case (k, x) =>
        if (!first) sb += ','
        first = false
        str(sb, k.toString); sb += ':'; put(sb, x)
      }
      sb += '}'
    case xs: Iterable[_] =>
      sb += '['
      var first = true
      xs.foreach { x => if (!first) sb += ','; first = false; put(sb, x) }
      sb += ']'
    case other => throw new IllegalArgumentException(s"not JSON-writable: $other")
  }

  private def str(sb: StringBuilder, s: String): Unit = {
    sb += '"'
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case '\r' => sb ++= "\\r"
      case '\t' => sb ++= "\\t"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c => sb += c
    }
    sb += '"'
  }

  def parse(text: String): Any = {
    val p = new Parser(text)
    val v = p.value()
    p.ws()
    require(p.i == text.length, s"trailing characters at ${p.i}")
    v
  }

  private final class Parser(s: String) {
    var i = 0

    def ws(): Unit = while (i < s.length && " \t\r\n".indexOf(s(i)) >= 0) i += 1

    private def expect(c: Char): Unit = {
      require(i < s.length && s(i) == c, s"expected '$c' at $i")
      i += 1
    }

    private def lit(word: String, v: Any): Any = {
      require(s.startsWith(word, i), s"bad literal at $i")
      i += word.length
      v
    }

    def value(): Any = {
      ws()
      require(i < s.length, "unexpected end of JSON")
      s(i) match {
        case '{' => obj()
        case '[' => arr()
        case '"' => string()
        case 't' => lit("true", true)
        case 'f' => lit("false", false)
        case 'n' => lit("null", None)
        case _   => number()
      }
    }

    private def obj(): Map[String, Any] = {
      expect('{')
      val b = collection.immutable.ListMap.newBuilder[String, Any]
      ws()
      if (s(i) == '}') { i += 1; return b.result() }
      var more = true
      while (more) {
        ws(); val k = string(); ws(); expect(':')
        b += k -> value()
        ws()
        if (s(i) == ',') i += 1 else { expect('}'); more = false }
      }
      b.result()
    }

    private def arr(): Seq[Any] = {
      expect('[')
      val b = Vector.newBuilder[Any]
      ws()
      if (s(i) == ']') { i += 1; return b.result() }
      var more = true
      while (more) {
        b += value()
        ws()
        if (s(i) == ',') i += 1 else { expect(']'); more = false }
      }
      b.result()
    }

    private def string(): String = {
      expect('"')
      val sb = new StringBuilder
      while (s(i) != '"') {
        if (s(i) == '\\') {
          i += 1
          s(i) match {
            case 'n' => sb += '\n'
            case 'r' => sb += '\r'
            case 't' => sb += '\t'
            case 'b' => sb += '\b'
            case 'f' => sb += '\f'
            case 'u' => sb += Integer.parseInt(s.substring(i + 1, i + 5), 16).toChar; i += 4
            case c   => sb += c
          }
        } else sb += s(i)
        i += 1
      }
      i += 1
      sb.result()
    }

    private def number(): Any = {
      val start = i
      while (i < s.length && "+-0123456789.eE".indexOf(s(i)) >= 0) i += 1
      val t = s.substring(start, i)
      require(t.nonEmpty, s"bad JSON value at $start")
      if (t.exists(c => c == '.' || c == 'e' || c == 'E')) t.toDouble else t.toLong
    }
  }
}
