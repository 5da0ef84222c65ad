package jobs

import repro.SparkSetup
import repro.exp.ExpSession

/** spark-submit entrypoint for the reproduced tables: `jobs.Tables <1|2|3|4>`.
  *
  * Example:
  * {{{
  * spark-submit --class jobs.Tables repro-jobs.jar 4
  * REPRO_SCALE=0.25 spark-submit --class jobs.Tables repro-jobs.jar 1
  * }}}
  */
object Tables {
  def main(args: Array[String]): Unit = {
    val render: ExpSession => String = args match {
      case Array("1") => _.table1Text()           // dataset statistics
      case Array("2") => _.table2Text()           // blockings, records, candidate pairs
      case Array("3") => _.table3Text()           // fine-tuning pairwise scores
      case Array("4") => s => s.table4Text(s.table4Rows(includeSensitivity = true))
      case _ =>
        System.err.println("usage: jobs.Tables <1|2|3|4>")
        sys.exit(2)
    }
    val s = new ExpSession(SparkSetup.getOrCreate())
    println(render(s))
    s.spark.stop()
  }
}
