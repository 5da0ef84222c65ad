package repro

import org.apache.spark.sql.SparkSession

/** Creates the SparkSession of the tests, the bench suites and the table
  * jobs, all with the same settings.
  *
  * Master from SPARK_MASTER (default `local[*]`), shuffle partitions from
  * SPARK_SHUFFLE_PARTITIONS (default 64). Broadcast joins are disabled so
  * joins exercise the shuffle path at small scale; log level is WARN to keep
  * test and bench output readable (bump to INFO when debugging).
  */
object SparkSetup {
  def getOrCreate(): SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}
