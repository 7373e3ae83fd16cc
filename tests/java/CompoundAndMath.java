// The JVM's answers for compound assignment (JLS 15.26.2), for
// Math.abs/min/max on long, for for loops over a long and for the one
// rounding of a long cast to float. tests/test_typed_semantics.py holds the
// same method bodies as Lime, with the values this class prints, and
// compiles and runs this class when a JDK is on PATH:
//
//     javac -d out tests/java/CompoundAndMath.java
//     java -cp out CompoundAndMath
//
// Each line is "<method> <value>".
public class CompoundAndMath {
    static int divIntByTenth() { int x = 1; x /= 0.1; return x; }
    static int divIntByZero() { int x = 5; x /= 0.0; return x; }
    static int divNegIntByZero() { int x = -5; x /= 0.0; return x; }
    static int divZeroIntByZero() { int x = 0; x /= 0.0; return x; }
    static long divLongByTenth() { long x = 1L; x /= 0.1; return x; }
    static long divLongByZero() { long x = 5L; x /= 0.0; return x; }
    static long absLong() { return Math.abs(-(1L << 40)); }
    static long maxLong() { return Math.max(1L << 40, 3L); }
    static long maxIntLong() { return Math.max(3, 1L << 40); }
    static long maxLongMax() { return Math.max(9223372036854775807L, 3L); }
    static long minLongMin() { return Math.min(-9223372036854775807L - 1L, 3L); }
    static long absLongMin() { return Math.abs(-9223372036854775807L - 1L); }
    static int addLongToInt() { int x = 1; x += (1L << 32) + 5; return x; }
    static int mulIntByDouble() { int x = 3; x *= 1e10; return x; }
    static int absIntMin() { return Math.abs(-2147483647 - 1); }
    static int countLongLoop() { int n = 0; for (long i = 2147483646L; i < 2147483650L; i++) { n += 1; if (n > 10) { return -n; } } return n; }
    static int countLongStep() { int n = 0; for (long i = 0L; i < 5000000000L; i += 1000000000L) { n += 1; if (n > 10) { return -n; } } return n; }
    static long castLongToFloat() { long v = 1152921573326323713L; return (long) (float) v; }

    public static void main(String[] args) {
        System.out.println("divIntByTenth " + divIntByTenth());
        System.out.println("divIntByZero " + divIntByZero());
        System.out.println("divNegIntByZero " + divNegIntByZero());
        System.out.println("divZeroIntByZero " + divZeroIntByZero());
        System.out.println("divLongByTenth " + divLongByTenth());
        System.out.println("divLongByZero " + divLongByZero());
        System.out.println("absLong " + absLong());
        System.out.println("maxLong " + maxLong());
        System.out.println("maxIntLong " + maxIntLong());
        System.out.println("maxLongMax " + maxLongMax());
        System.out.println("minLongMin " + minLongMin());
        System.out.println("absLongMin " + absLongMin());
        System.out.println("addLongToInt " + addLongToInt());
        System.out.println("mulIntByDouble " + mulIntByDouble());
        System.out.println("absIntMin " + absIntMin());
        System.out.println("countLongLoop " + countLongLoop());
        System.out.println("countLongStep " + countLongStep());
        System.out.println("castLongToFloat " + castLongToFloat());
    }
}
