package org.apache.spark

/** Blocks until the listener bus has delivered every posted event. The bus
  * is internal to Spark, hence this file's package; only the traced run
  * calls it.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
