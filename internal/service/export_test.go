package service

import "spasm"

// What the package's external tests need of a Job and of a waited
// submission; the package itself reads the fields directly.

func (j *Job) ID() string { return j.id }

func (j *Job) Done() <-chan struct{} { return j.done }

func (s *Server) SubmitWaited(spec spasm.Spec) (job *Job, hit bool, release func(), err error) {
	return s.submitWaited(spec, submitOpts{})
}
